// Microbench of the shared protocols::RoundEngine hot loop (extension
// beyond the paper: perf baseline, not a paper figure).
//
// Every Monte-Carlo trial of every polling bench is a drain of this loop,
// so two numbers define the simulator's throughput ceiling:
//   * rounds/sec — wall-clock rate of complete engine rounds (init
//     broadcast, tag-side index pick, bucket, dispatch, compact) while a
//     population drains;
//   * allocations/round — heap allocations per round, counted by a global
//     operator-new hook. The engine and both round policies keep all
//     round-scoped state in reusable scratch, so after the first round of
//     a run (which grows the capacity) steady-state rounds must allocate
//     NOTHING; the bench prints a loud verdict if that regresses.
// The second half measures end-to-end trial throughput serially and on a
// worker pool (RFID_THREADS, default 4) — the configuration the
// determinism gate pins byte-identical — so the baseline captures both
// the single-session hot loop and the fan-out the benches actually run.
//
// Output: one table + optional RFID_CSV_DIR CSV with a manifest sidecar
// recording seeds and workloads (the perf-baseline provenance).
#include <algorithm>
#include <chrono>
#include <iostream>

#include "alloc_guard.hpp"
#include "bench_util.hpp"
#include "common/env.hpp"
#include "common/simd.hpp"
#include "fault/recovery.hpp"
#include "obs/stream.hpp"
#include "protocols/hash_polling.hpp"
#include "protocols/round_engine.hpp"
#include "protocols/tree_polling.hpp"

// The process-wide operator-new counter lives in tests/alloc_guard.hpp
// (shared with tests/test_alloc_guard.cpp, which gates the same invariant
// in the main suite); this TU is the one inclusion for this binary.

namespace {

using rfid::alloc_guard::allocation_count;

using namespace rfid;

/// One full drain of a population through the engine, driven round by
/// round so allocations can be sampled at round granularity.
struct DrainResult final {
  std::uint64_t rounds = 0;
  std::uint64_t first_round_allocs = 0;
  std::uint64_t steady_allocs = 0;  ///< total over rounds 2..N
  double wall_s = 0.0;
};

template <typename Policy, typename PolicyConfig>
DrainResult drain_once(const PolicyConfig& policy_config, std::size_t n,
                       std::uint64_t seed, bool keep_records,
                       simd::Backend backend,
                       obs::StreamingAggregator* stream = nullptr) {
  Xoshiro256ss pop_rng(seed);
  const tags::TagPopulation population =
      tags::TagPopulation::uniform_random(n, pop_rng);
  sim::SessionConfig config;
  config.seed = seed ^ 0x9E3779B97F4A7C15ull;
  // keep_records=false isolates the round loop itself: storing collected
  // payloads costs one BitVec per *reply* (output data, not round
  // scratch), which the `+records` rows quantify separately.
  config.keep_records = keep_records;
  sim::Session session(population, config);
  tags::TagSoA active = protocols::make_devices(session);
  fault::RecoveryCoordinator recovery(config.recovery);
  protocols::RoundEngine engine(session, recovery);
  engine.set_hash_backend(backend);
  Policy policy(policy_config);

  DrainResult result;
  const auto start = std::chrono::steady_clock::now();
  while (!active.empty()) {
    const std::uint64_t before = allocation_count();
    engine.run_round(active, policy);
    // The live-telemetry hook the simserved daemon runs every round: a
    // Metrics copy into the aggregator under its mutex. The `+stream` rows
    // gate that this stays allocation-free (publish() is the serving
    // layer's job and runs on its own cadence, not per round).
    if (stream != nullptr)
      stream->update_reader(0, session.metrics(),
                            session.air().estimated_ber());
    const std::uint64_t delta = allocation_count() - before;
    if (result.rounds == 0)
      result.first_round_allocs = delta;
    else
      result.steady_allocs += delta;
    ++result.rounds;
  }
  const auto end = std::chrono::steady_clock::now();
  result.wall_s = std::chrono::duration<double>(end - start).count();
  return result;
}

struct EngineSeries final {
  RunningStats rounds_per_sec;
  std::uint64_t drains = 0;
  std::uint64_t rounds = 0;
  std::uint64_t first_round_allocs = 0;
  std::uint64_t steady_allocs = 0;
  std::uint64_t steady_rounds = 0;
};

template <typename Policy, typename PolicyConfig>
EngineSeries measure_engine(const PolicyConfig& policy_config, std::size_t n,
                            std::size_t reps, std::uint64_t master_seed,
                            bool keep_records,
                            simd::Backend backend = simd::best_backend(),
                            obs::StreamingAggregator* stream = nullptr) {
  EngineSeries series;
  // One untimed warm-up drain pages in code and the allocator.
  (void)drain_once<Policy>(policy_config, n, master_seed, keep_records,
                           backend, stream);
  for (std::size_t rep = 0; rep < reps; ++rep) {
    // One sample aggregates drains until its timed window reaches ~2 ms: a
    // single fast-path drain is tens of microseconds, far below scheduler
    // jitter on a shared host, so single-drain samples swing wildly while
    // a 2 ms window averages the jitter out. Each drain still gets its
    // own seed.
    double wall = 0.0;
    std::uint64_t rounds = 0;
    for (std::uint64_t drain = 0; wall < 0.002; ++drain) {
      const DrainResult r =
          drain_once<Policy>(policy_config, n,
                             master_seed + rep * 0x10001ULL + drain,
                             keep_records, backend, stream);
      // Publishing between drains mirrors the daemon's snapshot cadence
      // and keeps the (allocating) snapshot build out of the per-round
      // window.
      if (stream != nullptr) (void)stream->publish(r.wall_s);
      wall += r.wall_s;
      rounds += r.rounds;
      series.drains += 1;
      series.rounds += r.rounds;
      series.first_round_allocs += r.first_round_allocs;
      series.steady_allocs += r.steady_allocs;
      series.steady_rounds += r.rounds > 0 ? r.rounds - 1 : 0;
    }
    series.rounds_per_sec.add(static_cast<double>(rounds) / wall);
  }
  return series;
}

/// End-to-end trial throughput through parallel::run_trials — the fan-out
/// every reproduction bench uses. Returns {rounds/sec, total rounds}.
std::pair<double, std::uint64_t> measure_trials(
    const protocols::PollingProtocol& protocol, std::size_t n,
    std::size_t trials, std::uint64_t master_seed,
    parallel::ThreadPool* pool) {
  parallel::TrialPlan plan;
  plan.trials = trials;
  plan.master_seed = master_seed;
  plan.session.info_bits = 1;
  const auto start = std::chrono::steady_clock::now();
  const auto series =
      parallel::run_trials(protocol, parallel::uniform_population(n), plan,
                           pool);
  const auto end = std::chrono::steady_clock::now();
  const double wall_s = std::chrono::duration<double>(end - start).count();
  return {static_cast<double>(series.totals.rounds) / wall_s,
          series.totals.rounds};
}

}  // namespace

int main() {
  const std::size_t reps = bench::runs(5);
  const std::size_t n = std::min<std::size_t>(bench::max_n(100000), 4096);
  const std::size_t trial_n = std::min<std::size_t>(n, 1024);
  const std::size_t trials = 32;
  const std::uint64_t master_seed = 2025;
  bench::CsvSink csv("bench_round_engine");
  bench::preamble("RoundEngine microbench: rounds/sec and allocations/round",
                  reps);

  // The `simd` column records which kernel backend produced each row, so a
  // committed snapshot is unambiguous about the path it measured. Engine
  // rows default to the best backend this build offers; extra `<name>/scalar`
  // rows pin the scalar reference whenever a vector backend exists, making
  // the per-width speedup visible in one table.
  const simd::Backend best = simd::best_backend();
  const std::vector<std::string> headers{
      "mode",   "protocol",   "n",        "simd",
      "rounds", "rounds/sec", "alloc r1", "alloc/steady round"};
  TablePrinter table(headers);
  csv.row(headers);
  bool steady_clean = true;

  // Engine rows report the BEST sample window, with ± showing the
  // max-min spread across windows. On a shared host, scheduler steal only
  // ever slows a window down, never speeds it up, so the fastest window
  // is the least-biased estimate of the machine's true throughput (the
  // same reasoning behind timeit's min-of-repeats guidance); a mean would
  // drift with whatever else the host happened to run.
  const auto best_of = [](const RunningStats& s) {
    std::string out = TablePrinter::num(s.max(), 0);
    if (s.count() > 1)
      out += " \xC2\xB1" + TablePrinter::num(s.max() - s.min(), 0);
    return out;
  };

  const auto engine_row = [&](const std::string& name, simd::Backend backend,
                              const EngineSeries& s, bool gate) {
    const double steady_per_round =
        s.steady_rounds == 0
            ? 0.0
            : static_cast<double>(s.steady_allocs) /
                  static_cast<double>(s.steady_rounds);
    if (gate && s.steady_allocs != 0) steady_clean = false;
    bench::RunManifest::instance().record(name, n, 1, reps, master_seed);
    const std::vector<std::string> row{
        "engine",
        name,
        std::to_string(n),
        std::string(simd::backend_name(backend)),
        std::to_string(s.drains == 0 ? 0 : s.rounds / s.drains),
        best_of(s.rounds_per_sec),
        std::to_string(s.drains == 0 ? 0 : s.first_round_allocs / s.drains),
        TablePrinter::num(steady_per_round, 3)};
    table.add_row(row);
    csv.row(row);
  };

  // The gated rows: the round loop with output storage off, which must be
  // allocation-free in steady state. The `+records` rows show the
  // per-reply BitVec cost of actually keeping collected payloads.
  engine_row("HPP", best,
             measure_engine<protocols::HppRoundPolicy>(
                 protocols::HppRoundConfig{}, n, reps, master_seed,
                 /*keep_records=*/false, best),
             /*gate=*/true);
  engine_row("TPP", best,
             measure_engine<protocols::TppRoundPolicy>(
                 protocols::Tpp::Config{}, n, reps, master_seed,
                 /*keep_records=*/false, best),
             /*gate=*/true);
  // Forced-scalar reference rows: same drains on the scalar kernels, so the
  // per-width speedup is one table away. Only emitted when this build has a
  // vector backend to compare against.
  if (best != simd::Backend::kScalar) {
    engine_row("HPP/scalar", simd::Backend::kScalar,
               measure_engine<protocols::HppRoundPolicy>(
                   protocols::HppRoundConfig{}, n, reps, master_seed,
                   /*keep_records=*/false, simd::Backend::kScalar),
               /*gate=*/true);
    engine_row("TPP/scalar", simd::Backend::kScalar,
               measure_engine<protocols::TppRoundPolicy>(
                   protocols::Tpp::Config{}, n, reps, master_seed,
                   /*keep_records=*/false, simd::Backend::kScalar),
               /*gate=*/true);
  }
  // The aggregator hook rows: identical drains with the simserved
  // per-round telemetry fold attached. Gated like the bare rows — the
  // hook must not reintroduce steady-state allocation — and comparable
  // against them for rounds/sec (BENCH_round_engine.json tracks both).
  {
    obs::StreamingAggregator stream(1);
    engine_row("HPP+stream", best,
               measure_engine<protocols::HppRoundPolicy>(
                   protocols::HppRoundConfig{}, n, reps, master_seed,
                   /*keep_records=*/false, best, &stream),
               /*gate=*/true);
  }
  {
    obs::StreamingAggregator stream(1);
    engine_row("TPP+stream", best,
               measure_engine<protocols::TppRoundPolicy>(
                   protocols::Tpp::Config{}, n, reps, master_seed,
                   /*keep_records=*/false, best, &stream),
               /*gate=*/true);
  }
  engine_row("HPP+records", best,
             measure_engine<protocols::HppRoundPolicy>(
                 protocols::HppRoundConfig{}, n, reps, master_seed,
                 /*keep_records=*/true, best),
             /*gate=*/false);
  engine_row("TPP+records", best,
             measure_engine<protocols::TppRoundPolicy>(
                 protocols::Tpp::Config{}, n, reps, master_seed,
                 /*keep_records=*/true, best),
             /*gate=*/false);

  // --- Trial fan-out: serial vs pool (the determinism-gate pairing) ---------
  const unsigned pool_threads = static_cast<unsigned>(
      std::max<std::uint64_t>(1, env_u64("RFID_THREADS", 4)));
  const auto trial_row = [&](const char* mode,
                             const protocols::PollingProtocol& protocol,
                             parallel::ThreadPool* pool) {
    bench::RunManifest::instance().record(protocol.name(), trial_n, 1, trials,
                                          master_seed);
    const auto [rps, rounds] =
        measure_trials(protocol, trial_n, trials, master_seed, pool);
    const std::vector<std::string> row{
        mode,
        std::string(protocol.name()),
        std::to_string(trial_n),
        std::string(simd::backend_name(best)),
        std::to_string(rounds),
        TablePrinter::num(rps, 0),
        "-",
        "-"};
    table.add_row(row);
    csv.row(row);
  };

  const protocols::Hpp hpp;
  const protocols::Tpp tpp;
  trial_row("serial", hpp, nullptr);
  trial_row("serial", tpp, nullptr);
  {
    parallel::ThreadPool pool(pool_threads);
    const std::string mode = "pool x" + std::to_string(pool.thread_count());
    trial_row(mode.c_str(), hpp, &pool);
    trial_row(mode.c_str(), tpp, &pool);
  }

  table.print(std::cout);
  std::cout << "\nsteady-state allocations/round: "
            << (steady_clean ? "0 (OK — engine and policy scratch reused)"
                             : "NONZERO (REGRESSION: round scratch is "
                               "reallocating; see table)")
            << "\n";
  return steady_clean ? 0 : 1;
}
