// deployment_sweep — drive the deployment simulator (core::Deployment) over
// a seeded population and print a wall-clock-free report.
//
//   ./deployment_sweep [--tags N] [--readers N] [--channels N]
//                      [--overlap X] [--churn X] [--crash X] [--stall X]
//                      [--restart X] [--shards N] [--seed N]
//                      [--protocol HPP|TPP] [--report-json PATH]
//
// Every output byte is a pure function of the flags: the population is
// generated with per-shard pure RNG streams, the sweep itself is
// byte-identical serial vs RFID_THREADS=N and invariant to --shards, and
// no wall clock is ever read — which is exactly what lets
// scripts/check_determinism.sh diff two runs of this binary bit-for-bit.
//
// --churn X splits the per-tag per-tick hazard 4/5 zone moves (handoffs to
// the new owner) and 1/5 departures (listed missing), the same split
// tools/simserved uses for --churn-rate. --crash, --stall and --restart
// are per-reader, per-tick fault rates (fault::ReaderFaultConfig), 0 by
// default: with churn on, a crash hands its reader's tags off, and each
// arrives with horizon 0, so its new reader's next scan evaluates it in
// full.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>

#include "common/env.hpp"
#include "core/deployment.hpp"
#include "obs/stream.hpp"
#include "parallel/thread_pool.hpp"
#include "protocols/registry.hpp"
#include "tags/population.hpp"

namespace {

using namespace rfid;

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--tags N] [--readers N] [--channels N] [--overlap X]\n"
               "       [--churn X] [--crash X] [--stall X] [--restart X]\n"
               "       [--shards N] [--seed N]\n"
               "       [--protocol HPP|TPP] [--report-json PATH]\n"
               "  --protocol in any case; --overlap in [0,1]; --churn and\n"
               "  the per-tick reader fault rates --crash, --stall and\n"
               "  --restart in [0,1); integers strictly base-10;\n"
               "  RFID_THREADS=N pools the parallel phase\n";
  return EXIT_FAILURE;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t tags_n = 100000;
  std::size_t readers = 64;
  std::size_t channels = 8;
  double overlap = 0.1;
  double churn = 0.0;
  fault::ReaderFaultConfig faults;
  std::size_t shards = 0;
  std::uint64_t seed = 1;
  protocols::ProtocolKind kind = protocols::ProtocolKind::kTpp;
  std::string report_json_path;

  for (int arg = 1; arg < argc; ++arg) {
    const std::string_view flag = argv[arg];
    const auto next_size = [&](bool allow_zero) -> std::optional<std::size_t> {
      if (arg + 1 >= argc) return std::nullopt;
      return parse_size_arg(argv[++arg], allow_zero);
    };
    // A per-tick fault rate, in [0, 1).
    const auto next_rate = [&]() -> std::optional<double> {
      if (arg + 1 >= argc) return std::nullopt;
      const auto rate = parse_fraction_arg(argv[++arg]);
      if (!rate || *rate >= 1.0) return std::nullopt;
      return rate;
    };
    std::optional<std::size_t> value;
    std::optional<double> rate;
    if (flag == "--tags" && (value = next_size(false))) {
      tags_n = *value;
    } else if (flag == "--readers" && (value = next_size(false))) {
      readers = *value;
    } else if (flag == "--channels" && (value = next_size(false))) {
      channels = *value;
    } else if (flag == "--shards" && (value = next_size(true))) {
      shards = *value;
    } else if (flag == "--seed" && (value = next_size(false))) {
      seed = *value;
    } else if (flag == "--overlap" && arg + 1 < argc) {
      const auto fraction = parse_fraction_arg(argv[++arg]);
      if (!fraction || *fraction > 1.0) return usage(argv[0]);
      overlap = *fraction;
    } else if (flag == "--churn" && arg + 1 < argc) {
      const auto fraction = parse_fraction_arg(argv[++arg]);
      if (!fraction || *fraction >= 1.0) return usage(argv[0]);
      churn = *fraction;
    } else if (flag == "--crash" && (rate = next_rate())) {
      faults.crash_per_tick = *rate;
    } else if (flag == "--stall" && (rate = next_rate())) {
      faults.stall_per_tick = *rate;
    } else if (flag == "--restart" && (rate = next_rate())) {
      faults.restart_per_tick = *rate;
    } else if (flag == "--protocol" && arg + 1 < argc) {
      // Case-insensitive, as protocol_comparison takes it; only the round
      // engine protocols can be scheduled tick by tick.
      const auto parsed = protocols::parse_protocol(argv[++arg]);
      if (parsed != protocols::ProtocolKind::kHpp &&
          parsed != protocols::ProtocolKind::kTpp)
        return usage(argv[0]);
      kind = *parsed;
    } else if (flag == "--report-json" && arg + 1 < argc) {
      report_json_path = argv[++arg];
    } else {
      std::cerr << "bad argument: " << flag << '\n';
      return usage(argv[0]);
    }
  }

  // RFID_THREADS=k pools the tick loop's parallel phase; unset or 0 runs
  // serially. Either way the report is bit-identical (reader-ordered merge
  // fold) — the CI determinism stanza diffs exactly this output.
  std::unique_ptr<parallel::ThreadPool> pool;
  if (const std::uint64_t threads = env_u64("RFID_THREADS", 0); threads > 0)
    pool = std::make_unique<parallel::ThreadPool>(
        static_cast<unsigned>(threads));

  // Population generation is sharded with pure (seed, shard) streams; the
  // shard count here is a fixed generation constant (not --shards, which
  // only sets the execution grain), so every run of the same --tags/--seed
  // sees the same IDs.
  constexpr std::size_t kGenShards = 8;
  const tags::TagPopulation population =
      tags::TagPopulation::uniform_random_sharded(tags_n, seed, kGenShards);

  core::DeploymentConfig config;
  config.readers = readers;
  config.channels = channels;
  config.kind = kind;
  config.session.seed = seed;
  config.session.keep_records = false;  // count-verified at this scale
  config.zone_overlap = overlap;
  config.churn_move_per_tick = churn * 0.8;
  config.churn_depart_per_tick = churn * 0.2;
  config.reader_faults = faults;
  config.shards = shards;

  const core::DeploymentReport report =
      core::run_deployment(population, config, pool.get());

  std::cout << "deployment_sweep: " << tags_n << " tags x " << readers
            << " readers x " << channels << " channels (overlap " << overlap
            << ", churn " << churn;
  if (faults.enabled())
    std::cout << ", crash " << faults.crash_per_tick << ", stall "
              << faults.stall_per_tick << ", restart "
              << faults.restart_per_tick;
  std::cout << ", seed " << seed << ")\n"
            << "  ticks " << report.ticks << ", delivered "
            << report.delivered << ", missing " << report.missing_ids.size()
            << ", undelivered " << report.undelivered_ids.size()
            << ", handoffs " << report.handoffs << " (" << report.churn_moves
            << " churn moves), departures " << report.churn_departures
            << "\n"
            << "  makespan " << report.makespan_s << " s, busy "
            << report.total_busy_s << " s, verified "
            << (report.verified ? "yes" : "NO") << '\n';
  for (std::size_t c = 0; c < report.per_channel.size(); ++c)
    std::cout << "  channel " << c << ": " << report.per_channel[c].readers
              << " readers, " << report.per_channel[c].rounds << " rounds, "
              << report.per_channel[c].busy_us * 1e-6 << " s\n";

  if (!report_json_path.empty()) {
    std::ofstream out(report_json_path);
    if (!out) {
      std::cerr << "cannot open " << report_json_path << " for writing\n";
      return EXIT_FAILURE;
    }
    // Deterministic JSON: the totals metrics (byte-stable writer) plus the
    // deployment counters. The determinism gate byte-compares this file.
    out << R"({"tags":)" << tags_n << R"(,"readers":)" << readers
        << R"(,"channels":)" << channels << R"(,"ticks":)" << report.ticks
        << R"(,"delivered":)" << report.delivered << R"(,"missing":)"
        << report.missing_ids.size() << R"(,"undelivered":)"
        << report.undelivered_ids.size() << R"(,"handoffs":)"
        << report.handoffs << R"(,"churn_moves":)" << report.churn_moves
        << R"(,"churn_departures":)" << report.churn_departures
        << R"(,"verified":)" << (report.verified ? "true" : "false")
        << R"(,"totals":)";
    obs::write_json(out, report.totals);
    out << "}\n";
  }

  return report.verified ? EXIT_SUCCESS : EXIT_FAILURE;
}
