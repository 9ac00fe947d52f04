#include "sim/session.hpp"

#include <string>
#include <utility>

#include "common/error.hpp"

namespace rfid::sim {

namespace {
/// Domain-separation index for the fault injector's RNG stream: far outside
/// any realistic trial index, so the injector's stream never collides with
/// the per-trial seeds derive_seed hands out.
constexpr std::uint64_t kFaultStreamIndex = 0xFA17'0000'0000'0001ull;
}  // namespace

Session::Session(const tags::TagPopulation& population, SessionConfig config)
    : population_(&population),
      config_(std::move(config)),
      protocol_rng_(config_.seed),
      injector_(config_.fault, derive_seed(config_.seed, kFaultStreamIndex)),
      air_(population, config_, protocol_rng_, channel_, injector_, metrics_,
           records_, missing_ids_) {
  // A recovery policy with no mop-up passes can never consume any retry
  // budget, so an absent tag would be rescheduled forever; reject the
  // configuration up front instead of spinning until the round cap trips.
  RFID_EXPECTS(!config_.recovery.enabled || config_.recovery.mop_up_passes > 0);
  if (config_.keep_records) records_.reserve(population.size());
}

void Session::begin_round() {
  ++metrics_.rounds;
  if (injector_.churn_active()) injector_.advance_to_round(metrics_.rounds);
  if (config_.tracer != nullptr)
    air_.trace_event(obs::EventKind::kRoundBegin, 0.0, 0, 0, 0, 0.0, 0.0);
}

void Session::begin_circle() {
  ++metrics_.circles;
  if (config_.tracer != nullptr)
    air_.trace_event(obs::EventKind::kCircleBegin, 0.0, 0, 0, 0, 0.0, 0.0);
}

void Session::mark_undelivered(const TagId& id) {
  ++metrics_.undelivered;
  if (config_.keep_records) undelivered_ids_.push_back(id);
}

void Session::check_round_budget() const {
  if (metrics_.rounds + metrics_.circles > config_.max_rounds) {
    throw ProtocolError("round budget exceeded (" +
                        std::to_string(config_.max_rounds) +
                        "): protocol is not converging");
  }
}

RunResult Session::finish(std::string protocol_name) {
  if (config_.tracer != nullptr) config_.tracer->on_finish();
  RunResult result;
  result.protocol = std::move(protocol_name);
  result.population = population_->size();
  result.metrics = metrics_;
  result.channel = channel_.stats();
  result.records = std::move(records_);
  result.missing_ids = std::move(missing_ids_);
  result.undelivered_ids = std::move(undelivered_ids_);
  result.fault_layer = config_.fault.enabled() || config_.recovery.enabled ||
                       config_.framing.enabled;
  return result;
}

}  // namespace rfid::sim
