#include "core/epochs.hpp"

#include <bit>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace rfid::core {

DeploymentEpochs::DeploymentEpochs(DeploymentConfig config, std::size_t tags,
                                   std::uint64_t seed,
                                   std::uint64_t epoch_target)
    : config_(std::move(config)),
      tags_(tags),
      seed_(seed),
      epoch_target_(epoch_target),
      completed_(config_.readers) {
  RFID_EXPECTS(config_.readers >= 1);
}

tags::TagPopulation DeploymentEpochs::next_population() const {
  return tags::TagPopulation::uniform_random_sharded(
      tags_, derive_seed(seed_, epochs_), 8);
}

DeploymentConfig DeploymentEpochs::next_config() const {
  DeploymentConfig config = config_;
  config.session.seed = derive_seed(seed_, epochs_);
  return config;
}

void DeploymentEpochs::complete(const DeploymentReport& report) {
  RFID_EXPECTS(report.per_reader_metrics.size() == completed_.size());
  for (std::size_t r = 0; r < completed_.size(); ++r)
    completed_[r].merge(report.per_reader_metrics[r]);
  ++epochs_;
}

bool DeploymentEpochs::target_reached() const noexcept {
  return epoch_target_ != 0 && epochs_ >= epoch_target_;
}

std::uint64_t DeploymentEpochs::config_fingerprint() const {
  // The crash rate belongs here: reader crashes change the folds, so a
  // checkpoint taken at one rate cannot continue a run at another.
  std::uint64_t h = 0x45504F43ull;  // 'EPOC'
  h = sim::fingerprint_mix(h, config_.readers);
  h = sim::fingerprint_mix(h, config_.channels);
  h = sim::fingerprint_mix(h, tags_);
  h = sim::fingerprint_mix(h, seed_);
  h = sim::fingerprint_mix(
      h, std::bit_cast<std::uint64_t>(config_.zone_overlap));
  h = sim::fingerprint_mix(
      h, std::bit_cast<std::uint64_t>(config_.churn_move_per_tick));
  h = sim::fingerprint_mix(
      h, std::bit_cast<std::uint64_t>(config_.churn_depart_per_tick));
  h = sim::fingerprint_mix(
      h, std::bit_cast<std::uint64_t>(config_.reader_faults.crash_per_tick));
  return h;
}

void DeploymentEpochs::fill_checkpoint(sim::Checkpoint& out,
                                       std::uint64_t wall_unix_ms) const {
  out.config_fingerprint = config_fingerprint();
  out.master_seed = seed_;
  out.wall_unix_ms = wall_unix_ms;
  out.epoch_target = epoch_target_;
  out.readers.resize(completed_.size());
  for (std::size_t r = 0; r < completed_.size(); ++r) {
    sim::ReaderCheckpoint& slot = out.readers[r];
    slot.epochs = epochs_;
    slot.crashes = completed_[r].reader_crashes;
    slot.restarts = completed_[r].reader_restarts;
    // Every epoch starts a fresh Deployment, so at a boundary every reader
    // is healthy.
    slot.health = obs::ReaderHealth::kHealthy;
    slot.completed = completed_[r];
  }
}

void DeploymentEpochs::restore(const sim::Checkpoint& checkpoint,
                               obs::StreamingAggregator& aggregator) {
  if (checkpoint.config_fingerprint != config_fingerprint())
    throw std::runtime_error(
        "epochs: checkpoint was taken under a different configuration "
        "(fingerprint mismatch)");
  if (checkpoint.readers.size() != completed_.size())
    throw std::runtime_error("epochs: checkpoint reader count mismatch");
  const std::uint64_t epochs = checkpoint.readers.front().epochs;
  for (const sim::ReaderCheckpoint& slot : checkpoint.readers)
    if (slot.epochs != epochs)
      throw std::runtime_error(
          "epochs: checkpoint reader slots disagree on the epoch count");

  epochs_ = epochs;
  for (std::size_t r = 0; r < completed_.size(); ++r) {
    const sim::ReaderCheckpoint& slot = checkpoint.readers[r];
    completed_[r] = slot.completed;
    aggregator.restore_reader(r, slot.completed, slot.epochs, slot.health);
  }
}

void DeploymentEpochs::write_final_metrics(std::ostream& os) const {
  os << R"({"seed":)" << seed_ << R"(,"readers":)" << completed_.size()
     << R"(,"epoch_target":)" << epoch_target_ << R"(,"per_reader":[)";
  sim::Metrics totals;
  for (std::size_t r = 0; r < completed_.size(); ++r) {
    os << (r == 0 ? "" : ",") << R"({"epochs":)" << epochs_
       << R"(,"metrics":)";
    obs::write_json(os, completed_[r]);
    os << '}';
    totals.merge(completed_[r]);
  }
  os << R"(],"totals":)";
  obs::write_json(os, totals);
  os << "}\n";
}

}  // namespace rfid::core
