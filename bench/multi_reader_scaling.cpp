// Extension bench: multi-reader scaling (paper Section II-A's remark that
// the protocols extend to multiple readers once a collision-free schedule
// exists).
//
// Two phases share one CSV (schema column `mode` tells them apart):
//   * mode=schedule — makespan vs portals at the two ends of the channel
//     schedule (C = 1: TDMA; C = R: fully spatial), simulated time.
//   * mode=fleet    — wall-clock throughput of the sharded deployment
//     simulator at (readers, channels, n) points up to a million tags,
//     reported as tags/sec. scripts/check_bench_regression.sh gates these
//     rows against the committed BENCH_fleet.json snapshot.
//
// RFID_BENCH_MAX_N caps the largest fleet population (default 1,000,000);
// RFID_MAX_N caps the schedule-phase population as everywhere else.
// RFID_THREADS pools the fleet tick loop's parallel phase.
#include <chrono>
#include <iostream>
#include <memory>
#include <set>
#include <tuple>

#include "bench_util.hpp"
#include "core/deployment.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace rfid;

struct FleetPoint final {
  std::size_t readers;
  std::size_t channels;
  std::size_t tags;
};

}  // namespace

int main() {
  using namespace rfid;
  bench::CsvSink csv("multi_reader_scaling");
  csv.row({"mode", "readers", "channels", "n", "tdma_s", "parallel_s",
           "speedup", "wall_s", "tags_per_sec"});

  // --- Phase 1: schedule shape (simulated time, no wall clock) ---------
  const std::size_t n = bench::max_n(100000);
  std::cout << "=== Extension: multi-reader sweep scaling (TPP, n = " << n
            << ", 1-bit) ===\n\n";

  Xoshiro256ss rng(6);
  const auto inventory = tags::TagPopulation::uniform_random(n, rng);

  TablePrinter table({"portals", "TDMA makespan (s)",
                      "parallel makespan (s)", "parallel speedup",
                      "covered once"});
  double baseline = 0.0;
  for (const std::size_t readers : {1u, 2u, 4u, 8u}) {
    core::DeploymentConfig config;
    config.readers = readers;
    config.session.seed = 99;
    config.session.keep_records = false;
    config.channels = 1;
    const auto tdma = core::run_deployment(inventory, config);
    config.channels = readers;
    const auto par = core::run_deployment(inventory, config);
    if (readers == 1) baseline = par.makespan_s;
    table.add_row({std::to_string(readers),
                   TablePrinter::num(tdma.makespan_s),
                   TablePrinter::num(par.makespan_s),
                   TablePrinter::num(baseline / par.makespan_s, 2) + "x",
                   (tdma.verified && par.verified) ? "yes" : "NO"});
    csv.row({"schedule", std::to_string(readers), "", std::to_string(n),
             TablePrinter::num(tdma.makespan_s, 3),
             TablePrinter::num(par.makespan_s, 3),
             TablePrinter::num(baseline / par.makespan_s, 3), "", ""});
    bench::RunManifest::instance().record("multi-reader-tpp", n, 1, 1, 99);
  }
  table.print(std::cout);
  std::cout << "\nShape check: TDMA makespan is flat (one shared channel);"
               "\nisolated zones scale near-linearly because the hash"
               " partition balances\nshares and TPP's vector length is"
               " population-independent.\n";

  // --- Phase 2: sharded fleet throughput (wall clock, perf-gated) ------
  const std::size_t fleet_cap = env_u64("RFID_BENCH_MAX_N", 1000000);
  std::cout << "\n=== Sharded deployment throughput (TPP, overlap 0.1,"
               " churn 0.001, cap = " << fleet_cap << ") ===\n\n";

  std::unique_ptr<parallel::ThreadPool> pool;
  if (const std::uint64_t threads = env_u64("RFID_THREADS", 0); threads > 0)
    pool = std::make_unique<parallel::ThreadPool>(
        static_cast<unsigned>(threads));

  const FleetPoint points[] = {
      {8, 2, std::min<std::size_t>(fleet_cap, 100000)},
      {64, 8, std::min<std::size_t>(fleet_cap, 1000000)},
      {128, 16, std::min<std::size_t>(fleet_cap, 1000000)},
  };

  TablePrinter fleet({"readers", "channels", "tags", "ticks", "wall (s)",
                      "tags/sec", "verified"});
  std::set<std::tuple<std::size_t, std::size_t, std::size_t>> seen;
  bool all_verified = true;
  for (const FleetPoint& point : points) {
    // A tight RFID_BENCH_MAX_N can collapse distinct specs onto one
    // (readers, channels, n) key; measure each key once.
    if (!seen.insert({point.readers, point.channels, point.tags}).second)
      continue;
    const tags::TagPopulation population =
        tags::TagPopulation::uniform_random_sharded(point.tags, 7, 8);
    core::DeploymentConfig config;
    config.readers = point.readers;
    config.channels = point.channels;
    config.kind = protocols::ProtocolKind::kTpp;
    config.session.seed = 7;
    config.session.keep_records = false;
    config.zone_overlap = 0.1;
    config.churn_move_per_tick = 0.0008;
    config.churn_depart_per_tick = 0.0002;

    const auto start = std::chrono::steady_clock::now();
    const core::DeploymentReport report =
        core::run_deployment(population, config, pool.get());
    const auto end = std::chrono::steady_clock::now();
    const double wall_s = std::chrono::duration<double>(end - start).count();
    const double tags_per_sec =
        wall_s > 0.0 ? static_cast<double>(point.tags) / wall_s : 0.0;
    all_verified = all_verified && report.verified;

    fleet.add_row({std::to_string(point.readers),
                   std::to_string(point.channels),
                   std::to_string(point.tags), std::to_string(report.ticks),
                   TablePrinter::num(wall_s, 3),
                   TablePrinter::num(tags_per_sec, 0),
                   report.verified ? "yes" : "NO"});
    csv.row({"fleet", std::to_string(point.readers),
             std::to_string(point.channels), std::to_string(point.tags), "",
             "", "", TablePrinter::num(wall_s, 4),
             TablePrinter::num(tags_per_sec, 0)});
    bench::RunManifest::instance().record("fleet-tpp", point.tags, 1, 1, 7);
  }
  fleet.print(std::cout);
  std::cout << "\nFleet rows exercise the full tick loop: channel-rotated"
               " scheduling,\nzone-overlap ownership, churn handoffs and the"
               " reader-ordered merge fold.\n";
  return all_verified ? 0 : 1;
}
