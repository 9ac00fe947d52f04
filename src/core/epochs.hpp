// The epoch ledger behind tools/simserved: an endless (or target-bounded)
// loop of core::Deployment drains, checkpointed at epoch boundaries.
//
// A Deployment is one drain. DeploymentEpochs strings drains together and
// keeps the only state that outlives one: the per-reader fold of every
// completed epoch and the epoch count.
//
// Determinism contract (relied on by tests/test_checkpoint.cpp,
// scripts/check_checkpoint_resume.sh and scripts/chaos_fleet.sh):
//   * epoch e is a pure function of (seed, e): its population is
//     uniform_random_sharded(tags, derive_seed(seed, e), 8) and its session
//     seed is derive_seed(seed, e), which also seeds the reader-fault
//     streams. So after E epochs the folds are one exact byte sequence,
//     crashes included, however often the process was killed and resumed;
//   * only completed epochs enter the ledger. An epoch in flight at a kill
//     or a signal is never folded, counted or checkpointed; a resume
//     replays it from its boundary;
//   * a checkpoint captures epoch-boundary state only (epoch count plus
//     completed folds), so restore() needs no mid-drain RNG surgery.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "core/deployment.hpp"
#include "obs/stream.hpp"
#include "sim/checkpoint.hpp"
#include "tags/population.hpp"

namespace rfid::core {

class DeploymentEpochs final {
 public:
  /// `config` shapes every epoch; its session seed is replaced per epoch.
  /// `tags` is the population drained each epoch. `epoch_target` 0 runs
  /// forever.
  DeploymentEpochs(DeploymentConfig config, std::size_t tags,
                   std::uint64_t seed, std::uint64_t epoch_target);

  /// The population and config of the next epoch (epochs() + 1).
  [[nodiscard]] tags::TagPopulation next_population() const;
  [[nodiscard]] DeploymentConfig next_config() const;

  /// Folds a drained epoch's per_reader_metrics in reader order and counts
  /// the epoch. `report` is Deployment::finish() of the next epoch.
  void complete(const DeploymentReport& report);

  /// True once the epoch target is met (never when the target is 0).
  [[nodiscard]] bool target_reached() const noexcept;
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_; }

  // --- Checkpoint/resume ----------------------------------------------------

  /// Digest of what shapes an epoch: readers, channels, tags, seed, zone
  /// overlap, churn hazards and crash rate. The epoch target is left out,
  /// so a finished run can be extended.
  [[nodiscard]] std::uint64_t config_fingerprint() const;

  /// Fills `out` with the epoch-boundary state. `wall_unix_ms` is the
  /// caller's wall timestamp (the sim layer never reads a clock). Reuses
  /// `out`'s buffers, so periodic snapshots allocate nothing warm.
  void fill_checkpoint(sim::Checkpoint& out, std::uint64_t wall_unix_ms) const;

  /// Restores from a decoded checkpoint and pushes the restored folds into
  /// `aggregator`. Throws std::runtime_error, changing nothing, on a
  /// fingerprint mismatch, a reader-count mismatch, or reader slots that
  /// disagree on the epoch count.
  void restore(const sim::Checkpoint& checkpoint,
               obs::StreamingAggregator& aggregator);

  /// Byte-stable JSON of the completed per-reader folds: the same bytes at
  /// the same epoch count however the run was interrupted.
  void write_final_metrics(std::ostream& os) const;

 private:
  DeploymentConfig config_;
  std::size_t tags_;
  std::uint64_t seed_;
  std::uint64_t epoch_target_;
  std::uint64_t epochs_ = 0;
  std::vector<sim::Metrics> completed_;  ///< per reader, epochs in order
};

}  // namespace rfid::core
