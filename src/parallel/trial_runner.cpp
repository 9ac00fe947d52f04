#include "parallel/trial_runner.hpp"

#include <exception>
#include <utility>

#include "common/mutex.hpp"
#include "common/rng.hpp"
#include "common/thread_annotations.hpp"

namespace rfid::parallel {

namespace {

RunningStats collect(const std::vector<TrialOutcome>& outcomes,
                     double TrialOutcome::* field) {
  RunningStats stats;
  for (const TrialOutcome& outcome : outcomes) stats.add(outcome.*field);
  return stats;
}

/// Everything one trial hands back for aggregation. Metrics are merged
/// after the pool drains, in trial order, so the fold is deterministic.
struct TrialSlot final {
  TrialOutcome outcome;
  sim::Metrics metrics;
};

/// The cross-thread meeting point of a trial series. Pool workers deposit
/// one TrialSlot per trial; after ThreadPool::wait_idle the main thread
/// folds the slots — in trial order, never in completion order — through
/// sim::Metrics::merge. Every slot access is GUARDED_BY the aggregator
/// mutex, so the merge path carries a compile-checked lock discipline (and
/// a clean TSan run) on top of the byte-identity contract the determinism
/// gate enforces.
class TrialAggregator final {
 public:
  explicit TrialAggregator(std::size_t trials)
      : slots_(trials), errors_(trials) {}

  /// Called once per trial, from whichever thread ran it.
  void deposit(std::size_t trial, TrialSlot&& slot) RFID_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    slots_[trial] = std::move(slot);
  }

  void deposit_error(std::size_t trial, std::exception_ptr error)
      RFID_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    errors_[trial] = std::move(error);
  }

  /// Rethrows the first (by trial index) captured exception, if any.
  void rethrow_first_error() RFID_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    for (const std::exception_ptr& error : errors_)
      if (error) std::rethrow_exception(error);
  }

  /// The deterministic cross-trial fold: outcomes copied and metrics
  /// merged in trial order regardless of how the trials were scheduled —
  /// merge order is what makes the floating-point sums bit-identical
  /// between serial and pooled execution.
  [[nodiscard]] TrialSeries fold() RFID_EXCLUDES(mutex_) {
    const MutexLock lock(mutex_);
    return fold_locked();
  }

 private:
  [[nodiscard]] TrialSeries fold_locked() RFID_REQUIRES(mutex_) {
    TrialSeries series;
    series.outcomes.resize(slots_.size());
    for (std::size_t t = 0; t < slots_.size(); ++t) {
      series.outcomes[t] = slots_[t].outcome;
      series.totals.merge(slots_[t].metrics);
    }
    return series;
  }

  Mutex mutex_;
  std::vector<TrialSlot> slots_ RFID_GUARDED_BY(mutex_);
  std::vector<std::exception_ptr> errors_ RFID_GUARDED_BY(mutex_);
};

TrialSlot run_one(const protocols::PollingProtocol& protocol,
                  const PopulationFactory& make_population,
                  const TrialPlan& plan, std::size_t trial) {
  // Two independent streams per trial: one for the population's IDs, one for
  // the protocol's seeds. Both derive only from (master_seed, trial), which
  // is what makes the series order- and scheduling-independent.
  Xoshiro256ss pop_rng(derive_seed(plan.master_seed, 2 * trial));
  const tags::TagPopulation population = make_population(pop_rng);

  TrialSlot slot;
  sim::SessionConfig session = plan.session;
  session.seed = derive_seed(plan.master_seed, 2 * trial + 1);
  session.keep_records = false;  // trials aggregate metrics only
  session.tracer = nullptr;      // a caller-shared sink would race the pool

  const sim::RunResult result = protocol.run(population, session);
  slot.metrics = result.metrics;
  slot.outcome.avg_vector_bits = result.avg_vector_bits();
  slot.outcome.exec_time_s = result.exec_time_s();
  slot.outcome.rounds = static_cast<double>(result.metrics.rounds);
  slot.outcome.waste_fraction = result.metrics.waste_fraction();
  slot.outcome.polls = static_cast<double>(result.metrics.polls);
  return slot;
}

}  // namespace

RunningStats TrialSeries::vector_bits() const {
  return collect(outcomes, &TrialOutcome::avg_vector_bits);
}
RunningStats TrialSeries::time_s() const {
  return collect(outcomes, &TrialOutcome::exec_time_s);
}
RunningStats TrialSeries::rounds() const {
  return collect(outcomes, &TrialOutcome::rounds);
}
RunningStats TrialSeries::waste() const {
  return collect(outcomes, &TrialOutcome::waste_fraction);
}

TrialSeries run_trials(const protocols::PollingProtocol& protocol,
                       const PopulationFactory& make_population,
                       const TrialPlan& plan, ThreadPool* pool) {
  TrialAggregator aggregator(plan.trials);

  if (pool == nullptr) {
    for (std::size_t t = 0; t < plan.trials; ++t)
      aggregator.deposit(t, run_one(protocol, make_population, plan, t));
  } else {
    for (std::size_t t = 0; t < plan.trials; ++t) {
      pool->submit([&, t] {
        try {
          aggregator.deposit(t, run_one(protocol, make_population, plan, t));
        } catch (...) {
          aggregator.deposit_error(t, std::current_exception());
        }
      });
    }
    pool->wait_idle();
    aggregator.rethrow_first_error();
  }

  return aggregator.fold();
}

PopulationFactory uniform_population(std::size_t n) {
  return [n](Xoshiro256ss& pop_rng) {
    return tags::TagPopulation::uniform_random(n, pop_rng);
  };
}

}  // namespace rfid::parallel
