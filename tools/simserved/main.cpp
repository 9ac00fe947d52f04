// simserved — persistent streaming-simulation daemon.
//
// Runs an endless loop of deployment epochs: each epoch is one
// core::Deployment drain of R channel-scheduled readers over a fresh tag
// population (overlapping zones, churn-driven handoffs, optional injected
// reader crashes under the fleet supervisor), all on the deterministic
// simulation clock. Live telemetry is served over HTTP:
//
//   GET /              single-file live dashboard
//   GET /healthz       liveness + uptime + per-reader health
//   GET /metrics.json  latest aggregated MetricsSnapshot
//   GET /events        SSE stream of snapshots + typed fault events
//
//   ./simserved [--port N] [--readers N] [--tags N] [--seed N]
//               [--channels N] [--zone-overlap X] [--churn-rate X]
//               [--crash-rate X] [--snapshot-ms N] [--throttle-us N]
//               [--epochs N] [--checkpoint-dir PATH]
//               [--checkpoint-every N] [--final-metrics PATH]
//               [--trace PATH]
//
// The epoch ledger lives in core::DeploymentEpochs; this file is only the
// serving shell: flag parsing, wall-clock pacing, checkpoint scheduling and
// graceful shutdown. The simulation never reads a wall clock — epoch e is
// a pure function of (seed, e) regardless of serving load or RFID_THREADS.
//
// Checkpoint/resume: with --checkpoint-dir, the daemon writes an atomic
// (write-tmp + fsync + rename) sim::Checkpoint at epoch boundaries; on
// startup it resumes from an existing checkpoint automatically. Killing
// the daemon (SIGKILL included) and restarting it converges on the same
// --final-metrics bytes as an uninterrupted run at the same epoch count —
// tests/test_checkpoint.cpp and scripts/check_checkpoint_resume.sh enforce
// this.
//
// Shutdown: SIGINT/SIGTERM set a flag; the loop abandons the epoch in
// flight (never folded, counted or checkpointed — a resume replays it),
// writes a final checkpoint, publishes a final snapshot, closes every SSE
// subscription, stops the HTTP server (joining every connection), flushes
// the optional JSONL trace sink, and prints a drain summary.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/env.hpp"
#include "core/deployment.hpp"
#include "core/epochs.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/http.hpp"
#include "serve/telemetry_service.hpp"
#include "sim/checkpoint.hpp"
#include "tags/population.hpp"

namespace {

using namespace rfid;

std::atomic<int> g_signal{0};

void on_signal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

bool stopping() { return g_signal.load(std::memory_order_relaxed) != 0; }

struct Options final {
  std::uint16_t port = 0;  ///< 0 = ephemeral, printed at startup
  std::size_t readers = 2;
  std::size_t tags = 256;  ///< the whole population of every epoch
  std::uint64_t seed = 1;
  std::size_t channels = 1;
  double zone_overlap = 0.0;  ///< boundary-tag fraction
  double churn_rate = 0.0;    ///< per-tag per-tick churn hazard
  double crash_rate = 0.0;    ///< per-reader per-tick crash probability
  unsigned snapshot_ms = 500;
  unsigned throttle_us = 2000;  ///< sleep between ticks (0 = none)
  std::uint64_t epochs = 0;     ///< epoch target; 0 = run forever
  std::string checkpoint_dir;   ///< empty = checkpointing off
  std::uint64_t checkpoint_every = 1;  ///< epochs between checkpoints
  std::string final_metrics_path;
  std::string trace_path;
};

int usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--port N] [--readers N] [--tags N] [--seed N]\n"
         "       [--channels N] [--zone-overlap X] [--churn-rate X]\n"
         "       [--crash-rate X] [--snapshot-ms N] [--throttle-us N]\n"
         "       [--epochs N] [--checkpoint-dir PATH]\n"
         "       [--checkpoint-every N] [--final-metrics PATH]\n"
         "       [--trace PATH]\n"
         "  integers are strictly parsed (base-10 digits only); counts\n"
         "  must be positive; --port/--throttle-us/--epochs may be 0\n"
         "  --tags is the population each epoch drains; --zone-overlap in\n"
         "  [0,1] makes that fraction of tags boundary tags; --churn-rate\n"
         "  in [0,1) is the per-tag per-tick churn hazard (4/5 zone moves,\n"
         "  1/5 departures); --crash-rate in [0,1) is the per-reader\n"
         "  per-tick crash probability; --trace runs serially\n";
  return EXIT_FAILURE;
}

/// Strict non-negative decimal: digits with at most one '.', no signs or
/// exponents (parse_size_arg's policy, extended to the float flags).
std::optional<double> parse_fraction_arg(std::string_view text) {
  if (text.empty() || text == ".") return std::nullopt;
  bool dot = false;
  for (const char c : text) {
    if (c == '.') {
      if (dot) return std::nullopt;
      dot = true;
    } else if (c < '0' || c > '9') {
      return std::nullopt;
    }
  }
  return std::stod(std::string(text));
}

std::uint64_t wall_unix_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          // rfidlint: allow(wall-clock) — checkpoint/manifest stamping for operators; never feeds the simulation
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace

int main(int argc, char** argv) {
  Options options;

  for (int arg = 1; arg < argc; ++arg) {
    const std::string_view flag = argv[arg];
    const auto next_size = [&](bool allow_zero) -> std::optional<std::size_t> {
      if (arg + 1 >= argc) return std::nullopt;
      return parse_size_arg(argv[++arg], allow_zero);
    };
    // A fraction in [0, 1], or [0, 1) with `open`.
    const auto next_fraction = [&](bool open) -> std::optional<double> {
      if (arg + 1 >= argc) return std::nullopt;
      const auto fraction = parse_fraction_arg(argv[++arg]);
      if (!fraction || *fraction > 1.0 || (open && *fraction == 1.0))
        return std::nullopt;
      return fraction;
    };
    std::optional<std::size_t> value;
    std::optional<double> fraction;
    if (flag == "--port" && (value = next_size(true))) {
      if (*value > 65535) return usage(argv[0]);
      options.port = static_cast<std::uint16_t>(*value);
    } else if (flag == "--readers" && (value = next_size(false))) {
      options.readers = *value;
    } else if (flag == "--tags" && (value = next_size(false))) {
      options.tags = *value;
    } else if (flag == "--seed" && (value = next_size(false))) {
      options.seed = *value;
    } else if (flag == "--channels" && (value = next_size(false))) {
      options.channels = *value;
    } else if (flag == "--zone-overlap" && (fraction = next_fraction(false))) {
      options.zone_overlap = *fraction;
    } else if (flag == "--churn-rate" && (fraction = next_fraction(true))) {
      options.churn_rate = *fraction;
    } else if (flag == "--crash-rate" && (fraction = next_fraction(true))) {
      options.crash_rate = *fraction;
    } else if (flag == "--snapshot-ms" && (value = next_size(false))) {
      options.snapshot_ms = static_cast<unsigned>(*value);
    } else if (flag == "--throttle-us" && (value = next_size(true))) {
      options.throttle_us = static_cast<unsigned>(*value);
    } else if (flag == "--epochs" && (value = next_size(true))) {
      options.epochs = *value;
    } else if (flag == "--checkpoint-dir" && arg + 1 < argc) {
      options.checkpoint_dir = argv[++arg];
    } else if (flag == "--checkpoint-every" && (value = next_size(false))) {
      options.checkpoint_every = *value;
    } else if (flag == "--final-metrics" && arg + 1 < argc) {
      options.final_metrics_path = argv[++arg];
    } else if (flag == "--trace" && arg + 1 < argc) {
      options.trace_path = argv[++arg];
    } else {
      std::cerr << "bad argument: " << flag << '\n';
      return usage(argv[0]);
    }
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGPIPE, SIG_IGN);

  // The JSONL sink has one writer, so a traced run drains serially; reports
  // are byte-identical serial vs pooled, so nothing else changes.
  std::optional<obs::JsonlSink> jsonl;
  std::unique_ptr<parallel::ThreadPool> pool;
  if (!options.trace_path.empty()) {
    jsonl.emplace(options.trace_path);
  } else if (const std::uint64_t threads = env_u64("RFID_THREADS", 0);
             threads > 0) {
    pool = std::make_unique<parallel::ThreadPool>(
        static_cast<unsigned>(threads));
  }

  core::DeploymentConfig deployment_config;
  deployment_config.readers = options.readers;
  deployment_config.channels = options.channels;
  deployment_config.session.keep_records = false;
  deployment_config.session.tracer = jsonl ? &*jsonl : nullptr;
  deployment_config.zone_overlap = options.zone_overlap;
  deployment_config.churn_move_per_tick = options.churn_rate * 0.8;
  deployment_config.churn_depart_per_tick = options.churn_rate * 0.2;
  deployment_config.reader_faults.crash_per_tick = options.crash_rate;
  core::DeploymentEpochs ledger(deployment_config, options.tags,
                                options.seed, options.epochs);

  obs::StreamingAggregator aggregator(options.readers);
  const std::size_t channels = std::min(options.channels, options.readers);
  aggregator.configure_channels(channels);
  serve::TelemetryService service(aggregator);
  serve::HttpServer::Config http_config;
  http_config.port = options.port;
  serve::HttpServer server(http_config);
  service.install(server);
  try {
    server.start();
  } catch (const std::exception& error) {
    std::cerr << "cannot start server: " << error.what() << '\n';
    return EXIT_FAILURE;
  }

  // Resume from an existing checkpoint before draining the first epoch.
  const std::string checkpoint_path =
      options.checkpoint_dir.empty() ? ""
                                     : options.checkpoint_dir +
                                           "/checkpoint.bin";
  if (!checkpoint_path.empty()) {
    // A missing directory is an empty checkpoint store, not an error:
    // create it so the first epoch-boundary write (tmp + rename inside
    // the same directory) has somewhere to land.
    std::error_code dir_error;
    std::filesystem::create_directories(options.checkpoint_dir, dir_error);
    if (dir_error) {
      std::cerr << "cannot create checkpoint dir " << options.checkpoint_dir
                << ": " << dir_error.message() << '\n';
      return EXIT_FAILURE;
    }
    try {
      if (const auto checkpoint = sim::load_checkpoint(checkpoint_path)) {
        ledger.restore(*checkpoint, aggregator);
        std::cout << "simserved: resumed from " << checkpoint_path << " at "
                  << ledger.epochs() << " epochs\n";
      }
    } catch (const std::exception& error) {
      std::cerr << "cannot resume: " << error.what() << '\n';
      return EXIT_FAILURE;
    }
  }

  std::cout << "listening on http://127.0.0.1:" << server.port() << "\n"
            << "simserved: " << options.readers << " readers x "
            << options.tags << " tags x " << channels << " channels, overlap "
            << options.zone_overlap << ", churn " << options.churn_rate
            << ", crash " << options.crash_rate << ", seed " << options.seed
            << ", snapshot every " << options.snapshot_ms << " ms"
            << std::endl;

  using Clock = std::chrono::steady_clock;
  const auto interval = std::chrono::milliseconds(options.snapshot_ms);
  auto last_publish = Clock::now();
  std::uint64_t last_checkpoint_epochs = ledger.epochs();
  // Channel airtime and fleet counters accumulate across epochs (live
  // telemetry only; the ledger folds per-reader metrics).
  std::uint64_t handoffs_base = 0;
  std::uint64_t departures_base = 0;
  std::vector<std::uint64_t> channel_rounds_base(channels, 0);
  std::vector<double> channel_busy_base(channels, 0.0);

  // Checkpoint scratch, reused so the steady state allocates nothing.
  sim::Checkpoint checkpoint;
  std::vector<std::uint8_t> checkpoint_bytes;
  const auto write_checkpoint = [&] {
    if (checkpoint_path.empty()) return;
    ledger.fill_checkpoint(checkpoint, wall_unix_ms());
    sim::encode_into(checkpoint, checkpoint_bytes);
    sim::write_checkpoint_atomic(checkpoint_path, checkpoint_bytes);
    last_checkpoint_epochs = ledger.epochs();
  };

  while (!stopping() && !ledger.target_reached()) {
    const tags::TagPopulation population = ledger.next_population();
    core::Deployment deployment(population, ledger.next_config(), pool.get());
    while (!stopping() && deployment.tick()) {
      const auto now = Clock::now();
      if (now - last_publish >= interval) {
        for (std::size_t r = 0; r < deployment.reader_count(); ++r) {
          aggregator.update_reader(r, deployment.reader_metrics(r), 0.0);
          aggregator.set_reader_health(r, deployment.reader_health(r));
        }
        for (std::size_t c = 0; c < channels; ++c)
          aggregator.update_channel(
              c, core::channel_population(c, options.readers, channels),
              channel_rounds_base[c] + deployment.channel_rounds(c),
              channel_busy_base[c] + deployment.channel_busy_us(c));
        aggregator.set_fleet_counters(
            handoffs_base + deployment.handoffs(),
            departures_base + deployment.churn_departures());
        aggregator.publish(
            std::chrono::duration<double>(now - last_publish).count());
        last_publish = now;
      }
      if (options.throttle_us != 0)
        std::this_thread::sleep_for(
            std::chrono::microseconds(options.throttle_us));
    }
    if (stopping()) {
      // Abandon the in-flight epoch: never folded, counted or checkpointed
      // (a resume replays it), and dropped from the live views too.
      for (std::size_t r = 0; r < options.readers; ++r)
        aggregator.update_reader(r, sim::Metrics{}, 0.0);
      break;
    }

    const core::DeploymentReport report = deployment.finish();
    handoffs_base += report.handoffs;
    departures_base += report.churn_departures;
    for (std::size_t c = 0; c < channels; ++c) {
      channel_rounds_base[c] += report.per_channel[c].rounds;
      channel_busy_base[c] += report.per_channel[c].busy_us;
    }
    ledger.complete(report);
    for (std::size_t r = 0; r < options.readers; ++r)
      aggregator.complete_epoch(r, report.per_reader_metrics[r]);
    if (ledger.epochs() - last_checkpoint_epochs >= options.checkpoint_every)
      write_checkpoint();
  }

  // Graceful drain: a final checkpoint and snapshot so both durable state
  // and /metrics.json reflect exactly the completed epochs, then close the
  // streams before tearing the server down.
  try {
    if (ledger.epochs() != last_checkpoint_epochs) write_checkpoint();
  } catch (const std::exception& error) {
    std::cerr << "final checkpoint failed: " << error.what() << '\n';
  }
  for (std::size_t c = 0; c < channels; ++c)
    aggregator.update_channel(
        c, core::channel_population(c, options.readers, channels),
        channel_rounds_base[c], channel_busy_base[c]);
  aggregator.set_fleet_counters(handoffs_base, departures_base);
  aggregator.publish(
      std::chrono::duration<double>(Clock::now() - last_publish).count());
  aggregator.close_all();
  server.stop();
  if (jsonl) jsonl->on_finish();  // flushes the JSONL sink

  if (!options.final_metrics_path.empty()) {
    std::ofstream final_metrics(options.final_metrics_path);
    if (!final_metrics.is_open()) {
      std::cerr << "cannot write " << options.final_metrics_path << '\n';
      return EXIT_FAILURE;
    }
    ledger.write_final_metrics(final_metrics);
  }

  const int sig = g_signal.load(std::memory_order_relaxed);
  std::cout << "simserved: stopped ("
            << (sig == 0 ? "epoch limit" : sig == SIGINT ? "SIGINT"
                                                         : "SIGTERM")
            << "), " << ledger.epochs() << " epochs drained\n";
  return EXIT_SUCCESS;
}
