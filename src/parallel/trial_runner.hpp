// Monte-Carlo trial fan-out.
//
// Every number the paper reports is the mean of repeated simulation runs
// (100 in the paper). The trial runner executes `trials` independent runs —
// each with its own seed-derived population and session seed, so results are
// bit-identical whether trials run serially or across a pool — and returns
// the per-trial outcomes in trial order plus summary statistics.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/stats.hpp"
#include "parallel/thread_pool.hpp"
#include "protocols/protocol.hpp"

namespace rfid::parallel {

/// The scalar outcomes retained per trial.
struct TrialOutcome final {
  double avg_vector_bits = 0.0;
  double exec_time_s = 0.0;
  double rounds = 0.0;
  double waste_fraction = 0.0;
  double polls = 0.0;
};

struct TrialPlan final {
  std::size_t trials = 25;
  std::uint64_t master_seed = 42;
  /// Per-trial seed is derived and the field ignored; any trace sink is
  /// dropped too (a shared sink across pool threads would race).
  sim::SessionConfig session{};
};

/// Builds the population for one trial from a seed-derived RNG stream.
using PopulationFactory = std::function<tags::TagPopulation(Xoshiro256ss&)>;

/// Summary of a full trial series.
struct TrialSeries final {
  std::vector<TrialOutcome> outcomes;  ///< indexed by trial

  /// Metrics summed over all trials via sim::Metrics::merge (trial order,
  /// so serial and pooled runs agree bitwise).
  sim::Metrics totals{};

  [[nodiscard]] RunningStats vector_bits() const;
  [[nodiscard]] RunningStats time_s() const;
  [[nodiscard]] RunningStats rounds() const;
  [[nodiscard]] RunningStats waste() const;
};

/// Runs the series. A null `pool` executes serially; with a pool, trials are
/// distributed but per-trial results are identical to the serial run.
/// Populations are regenerated per trial (fresh random IDs), matching the
/// paper's averaging methodology. Exceptions from any trial are rethrown.
[[nodiscard]] TrialSeries run_trials(const protocols::PollingProtocol& protocol,
                                     const PopulationFactory& make_population,
                                     const TrialPlan& plan,
                                     ThreadPool* pool = nullptr);

/// Convenience factory: n uniformly random tags.
[[nodiscard]] PopulationFactory uniform_population(std::size_t n);

}  // namespace rfid::parallel
