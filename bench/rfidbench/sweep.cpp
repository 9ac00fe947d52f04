// paper-sweep: the paper's own methodology (Tables 1-3). HPP, EHPP and TPP
// each run Monte-Carlo trial series at three population sizes through
// parallel::run_trials; one sweep is one iteration. The timed sweeps run
// serially: on a shared host, pooled sweep times move with the load of
// other tenants far more than serial ones. The traced run reruns the
// reference-size series on a pool of four for parallel.pool_speedup.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "layers.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/trial_runner.hpp"
#include "protocols/registry.hpp"
#include "sim/session.hpp"

namespace rfidbench {

namespace {

using rfid::derive_seed;
using rfid::protocols::ProtocolKind;

constexpr double kTppBitsBound = 3.44;  // Eq. (16)
constexpr unsigned kPoolThreads = 4;
constexpr std::uint64_t kWarmupIteration = ~std::uint64_t{0};
/// Sweeps 0..K-1 always run; their fold is the simulated output.
constexpr std::size_t kSimIterations = 2;
/// The series pool_speedup and replay_coverage compare serial against.
constexpr std::size_t kReferenceN = 10'000;
/// Trial set-ups of the largest series timed after every untraced sweep.
constexpr std::size_t kSetupsPerSweep = 4;

struct Series final {
  ProtocolKind kind;
  std::size_t tags;
  std::size_t trials;
};

/// Protocol-major: the HPP series, then EHPP, then TPP, each over the same
/// ascending population sizes.
std::vector<Series> sweep_series(bool smoke) {
  const std::vector<std::pair<std::size_t, std::size_t>> sizes =
      smoke ? std::vector<std::pair<std::size_t, std::size_t>>{{1'000, 10},
                                                               {10'000, 2}}
            : std::vector<std::pair<std::size_t, std::size_t>>{
                  {1'000, 100}, {10'000, 100}, {100'000, 10}};
  std::vector<Series> series;
  for (const ProtocolKind kind :
       {ProtocolKind::kHpp, ProtocolKind::kEhpp, ProtocolKind::kTpp})
    for (const auto& [tags, trials] : sizes)
      series.push_back({kind, tags, trials});
  return series;
}

std::uint64_t series_seed(std::uint64_t seed, std::uint64_t iteration,
                          std::size_t series) {
  return derive_seed(derive_seed(seed, iteration), series);
}

rfid::parallel::TrialPlan trial_plan(const Series& series,
                                     std::uint64_t master_seed) {
  rfid::parallel::TrialPlan plan;
  plan.trials = series.trials;
  plan.master_seed = master_seed;
  plan.session.info_bits = 1;
  return plan;
}

/// run_trials's per-trial derivation: population stream 2t, session 2t+1.
rfid::tags::TagPopulation trial_population(const Series& series,
                                           std::uint64_t master_seed,
                                           std::size_t trial) {
  rfid::Xoshiro256ss rng(derive_seed(master_seed, 2 * trial));
  return rfid::parallel::uniform_population(series.tags)(rng);
}

rfid::sim::SessionConfig trial_session(const Series& series,
                                       std::uint64_t master_seed,
                                       std::size_t trial) {
  rfid::sim::SessionConfig session = trial_plan(series, master_seed).session;
  session.seed = derive_seed(master_seed, 2 * trial + 1);
  session.keep_records = false;
  return session;
}

struct SweepRun final {
  std::vector<rfid::parallel::TrialSeries> series;
  std::vector<double> series_s;  ///< run_trials wall per series
  double drive_s = 0.0;          ///< Σ series_s
  std::size_t tags = 0;
};

class SweepWorkload final {
 public:
  explicit SweepWorkload(const Options& options)
      : options_(options), series_(sweep_series(options.smoke)) {
    for (const Series& s : series_)
      protocols_.push_back(rfid::protocols::make_protocol(s.kind));
  }

  Result run();

 private:
  SweepRun sweep_once(std::uint64_t iteration);
  void check_sweep(const SweepRun& run);
  void time_setups(std::uint64_t iteration, Samples& setup_s);
  void trace_layers(const SweepRun& first);

  Options options_;
  std::vector<Series> series_;
  std::vector<std::unique_ptr<rfid::protocols::PollingProtocol>> protocols_;
  Result result_;
};

SweepRun SweepWorkload::sweep_once(std::uint64_t iteration) {
  SweepRun run;
  for (std::size_t j = 0; j < series_.size(); ++j) {
    const Series& s = series_[j];
    const Clock::time_point start = Clock::now();
    run.series.push_back(rfid::parallel::run_trials(
        *protocols_[j], rfid::parallel::uniform_population(s.tags),
        trial_plan(s, series_seed(options_.seed, iteration, j)), nullptr));
    const double elapsed = seconds_between(start, Clock::now());
    run.series_s.push_back(elapsed);
    run.drive_s += elapsed;
    run.tags += s.tags * s.trials;
  }
  return run;
}

void SweepWorkload::check_sweep(const SweepRun& run) {
  for (std::size_t j = 0; j < series_.size(); ++j) {
    const Series& s = series_[j];
    const rfid::obs::Metrics& totals = run.series[j].totals;
    const std::string label = std::string(rfid::protocols::to_string(s.kind)) +
                              " n=" + std::to_string(s.tags);
    result_.checks.expect(totals.polls == s.tags * s.trials &&
                              totals.undelivered == 0 && totals.missing == 0,
                          label + ": not every tag was read exactly once");
  }
  // Per population size: TPP < EHPP < HPP in bits per tag, TPP under Eq. 16.
  const std::size_t sizes = series_.size() / 3;  // HPP, EHPP, TPP blocks
  const auto bits = [&run](std::size_t j) {
    return run.series[j].totals.avg_vector_bits();
  };
  for (std::size_t k = 0; k < sizes; ++k) {
    const double hpp = bits(k);
    const double ehpp = bits(sizes + k);
    const double tpp = bits(2 * sizes + k);
    const std::string n = std::to_string(series_[k].tags);
    result_.checks.expect(tpp < ehpp && ehpp < hpp,
                          "n=" + n + ": vector bits not TPP < EHPP < HPP");
    result_.checks.expect(
        tpp < kTppBitsBound,
        "n=" + n + ": TPP vector bits per tag >= 3.44 (Eq. 16)");
  }
}

/// Times the set-up of the first trials of sweep `iteration`'s largest
/// series: the population factory plus the session each trial builds
/// before its first round.
void SweepWorkload::time_setups(std::uint64_t iteration, Samples& setup_s) {
  const Series& largest = series_.back();
  const std::uint64_t master =
      series_seed(options_.seed, iteration, series_.size() - 1);
  for (std::size_t t = 0; t < std::min(kSetupsPerSweep, largest.trials); ++t) {
    const Clock::time_point start = Clock::now();
    const rfid::tags::TagPopulation population =
        trial_population(largest, master, t);
    const rfid::sim::Session session(population,
                                     trial_session(largest, master, t));
    setup_s.add(seconds_between(start, Clock::now()));
  }
}

Result SweepWorkload::run() {
  result_.workload = "paper-sweep";
  result_.traced = options_.trace;
  result_.seed("master", options_.seed);

  (void)sweep_once(kWarmupIteration);

  Samples tags_per_s;
  Samples tags_per_s_untraced;
  Samples setup_s;
  Samples epochs_per_s;  // 1 / iteration wall
  std::size_t iterations = 0;
  double traced_wall_s = 0.0;
  double traced_drive_s = 0.0;
  rfid::obs::Metrics sim_fold{};
  double sim_tags = 0.0;
  SweepRun first;

  const Clock::time_point loop_start = Clock::now();
  for (std::uint64_t i = 0;
       i < kSimIterations ||
       seconds_between(loop_start, Clock::now()) < options_.seconds;
       ++i) {
    const bool traced = options_.trace && i % 2 == 0;
    const Clock::time_point start = Clock::now();
    SweepRun run = sweep_once(i);
    check_sweep(run);
    const double iteration_s = seconds_between(start, Clock::now());
    if (!options_.trace) time_setups(i, setup_s);

    for (std::size_t j = 0; j < series_.size(); ++j)
      result_.seed(
          "series[" + std::to_string(i) + "," + std::to_string(j) + "]",
          series_seed(options_.seed, i, j));
    const double rate = static_cast<double>(run.tags) / run.drive_s;
    (traced || !options_.trace ? tags_per_s : tags_per_s_untraced).add(rate);
    epochs_per_s.add(1.0 / iteration_s);
    ++iterations;
    if (traced) {
      traced_wall_s += iteration_s;
      traced_drive_s += run.drive_s;
    }
    if (i < kSimIterations) {
      for (const rfid::parallel::TrialSeries& s : run.series)
        sim_fold.merge(s.totals);
      sim_tags += static_cast<double>(run.tags);
    }
    if (i == 0) first = std::move(run);
  }
  result_.digests.emplace_back("sim_fold", digest(sim_fold));

  if (!options_.trace) {
    result_.add("tags_per_s", "tags/s", tags_per_s);
    result_.add("setup_s", "s", setup_s);
    result_.add("epochs_per_s", "1/s", epochs_per_s);
    result_.add("peak_rss_mb", "MB", peak_rss_mb());
    result_.add("sim_us_per_tag", "sim_us/tag", sim_fold.time_us / sim_tags);
    result_.add("vector_bits_per_tag", "bits/tag", sim_fold.avg_vector_bits());
    result_.add("sim_makespan_s", "sim_s",
                sim_fold.time_us * 1e-6 / static_cast<double>(kSimIterations));
    result_.add("undelivered_frac", "fraction",
                static_cast<double>(sim_fold.undelivered) / sim_tags);
    result_.add("iterations", "count", static_cast<double>(iterations));
    return std::move(result_);
  }

  const double k = static_cast<double>(kSimIterations);
  result_.add("protocols.rounds", "count",
              static_cast<double>(sim_fold.rounds) / k);
  result_.add("protocols.polls_per_round", "count",
              static_cast<double>(sim_fold.polls) /
                  static_cast<double>(sim_fold.rounds));
  result_.add("trace.coverage", "fraction", traced_drive_s / traced_wall_s);
  result_.add("trace.overhead", "ratio",
              tags_per_s.median() / tags_per_s_untraced.median());
  trace_layers(first);
  return std::move(result_);
}

/// Replays trials of sweep 0 layer by layer.
void SweepWorkload::trace_layers(const SweepRun& first) {
  std::vector<RoundShape> shapes;
  double build_s = 0.0;
  std::size_t sessions = 0;
  double popgen_s = 0.0;
  double rounds_s = 0.0;
  std::size_t tags = 0;
  double reference_replay_s = 0.0;
  std::size_t reference_trials = 0;
  for (std::size_t j = 0; j < series_.size(); ++j) {
    const Series& s = series_[j];
    const std::uint64_t master = series_seed(options_.seed, 0, j);
    const std::size_t replays = std::min<std::size_t>(
        s.trials, options_.smoke ? 1 : (s.tags >= 100'000 ? 1 : 3));
    for (std::size_t t = 0; t < replays; ++t) {
      const Clock::time_point start = Clock::now();
      const rfid::tags::TagPopulation population =
          trial_population(s, master, t);
      const double built_s = seconds_between(start, Clock::now());
      const SessionReplay replay =
          replay_session(s.kind, population, trial_session(s, master, t),
                         all_devices(population), shapes);
      popgen_s += built_s;
      rounds_s += replay.rounds_s;
      build_s += replay.build_s;
      ++sessions;
      tags += population.size();
      if (s.tags == kReferenceN) {
        reference_replay_s += built_s + replay.build_s + replay.rounds_s;
        ++reference_trials;
      }

      const rfid::parallel::TrialOutcome& outcome = first.series[j].outcomes[t];
      result_.checks.expect(
          replay.metrics.avg_vector_bits() == outcome.avg_vector_bits &&
              replay.metrics.exec_time_s() == outcome.exec_time_s &&
              static_cast<double>(replay.metrics.rounds) == outcome.rounds &&
              static_cast<double>(replay.metrics.polls) == outcome.polls,
          "replay: trial metrics differ from run_trials");
    }
  }
  const double n = static_cast<double>(tags);
  result_.add("tags.popgen_ns_per_tag", "ns/tag", popgen_s * 1e9 / n);
  result_.add("sim.session_build_us", "us",
              build_s * 1e6 / static_cast<double>(sessions));
  result_.add("protocols.round_ns_per_tag", "ns/tag", rounds_s * 1e9 / n);

  const Series& largest = series_.back();
  const std::size_t heap_before = heap_bytes_in_use();
  const rfid::tags::TagPopulation population =
      trial_population(largest, options_.seed, 0);
  result_.add("tags.bytes_per_tag", "B/tag",
              heap_growth(heap_before, heap_bytes_in_use()) /
                  static_cast<double>(largest.tags));

  const KernelCosts kernels =
      replay_kernels(shapes, all_devices(population), result_.checks);
  result_.add("common.hash_indices_ns_per_tag", "ns/tag",
              kernels.hash_ns_per_tag);
  result_.add("common.hash_indices_scalar_ns_per_tag", "ns/tag",
              kernels.hash_scalar_ns_per_tag);
  result_.add("common.count_singletons_ns_per_bucket", "ns/bucket",
              kernels.count_ns_per_bucket);
  result_.add("common.compact_ns_per_tag", "ns/tag",
              kernels.compact_ns_per_tag);

  // The reference-size series of sweep 0 again, pooled: same fold, and the
  // pool's speedup over the serial sweep.
  rfid::parallel::ThreadPool pool(kPoolThreads);
  double serial_s = 0.0;
  double pooled_s = 0.0;
  std::size_t reference_total_trials = 0;
  for (std::size_t j = 0; j < series_.size(); ++j) {
    const Series& s = series_[j];
    if (s.tags != kReferenceN) continue;
    const Clock::time_point start = Clock::now();
    const rfid::parallel::TrialSeries pooled = rfid::parallel::run_trials(
        *protocols_[j], rfid::parallel::uniform_population(s.tags),
        trial_plan(s, series_seed(options_.seed, 0, j)), &pool);
    pooled_s += seconds_between(start, Clock::now());
    serial_s += first.series_s[j];
    reference_total_trials += s.trials;
    result_.checks.expect(
        digest(pooled.totals) == digest(first.series[j].totals),
        "sweep: serial and pooled trial folds differ");
  }
  result_.add("parallel.pool_speedup", "ratio", serial_s / pooled_s);
  result_.add("trace.replay_coverage", "fraction",
              (reference_replay_s / static_cast<double>(reference_trials)) /
                  (serial_s / static_cast<double>(reference_total_trials)));
}

}  // namespace

Result run_paper_sweep(const Options& options) {
  return SweepWorkload(options).run();
}

}  // namespace rfidbench
