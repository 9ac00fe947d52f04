// The three drain workloads: clean-tpp, churn-fleet and serve-epochs.
//
// Each iteration builds a fresh population, constructs a core::Deployment
// over it and ticks it to completion. serve-epochs additionally runs
// simserved's deployment loop around the drain: every tick feeds a
// StreamingAggregator that a real HttpServer serves to an open-loop client
// and an SSE subscriber, and every epoch ends with a checkpoint round trip.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "core/deployment.hpp"
#include "core/multi_reader.hpp"
#include "fault/supervisor.hpp"
#include "http_client.hpp"
#include "layers.hpp"
#include "obs/stream.hpp"
#include "parallel/thread_pool.hpp"
#include "serve/http.hpp"
#include "serve/telemetry_service.hpp"
#include "sim/checkpoint.hpp"
#include "tags/population.hpp"

namespace rfidbench {

namespace {

using rfid::derive_seed;

/// Eq. (16): TPP's expected polling vector is below 3.44 bits per tag.
constexpr double kTppBitsBound = 3.44;
/// Population shards of uniform_random_sharded, as simserved uses.
constexpr std::size_t kPopulationShards = 8;
constexpr unsigned kPoolThreads = 4;
constexpr std::uint64_t kWarmupIteration = ~std::uint64_t{0};
constexpr double kRequestsPerSecond = 200.0;

struct DrainShape final {
  const char* name;
  std::size_t tags;
  std::size_t readers;
  std::size_t channels;
  double zone_overlap;
  double churn;  ///< per tag per tick: 0.8 of it moves, 0.2 departs
  rfid::fault::ReaderFaultConfig faults;
  /// Also drains iteration 0 on a pool of four after the timed loop; it
  /// must fold to the serial drain's metrics. The timed drains are serial:
  /// pooled drain times on a shared host swing between two modes with the
  /// load of other tenants, and parallel.pool_speedup reports the pool.
  bool pool_check;
  bool serve;
  /// Iterations 0..K-1 always run; their folded output is the run's
  /// simulated metrics, so those repeat exactly for a given --seed.
  std::size_t sim_iterations;
};

struct IterationSeeds final {
  std::uint64_t population;
  std::uint64_t session;
};

IterationSeeds iteration_seeds(std::uint64_t seed, std::uint64_t iteration) {
  const std::uint64_t base = derive_seed(seed, iteration);
  return {derive_seed(base, 0), derive_seed(base, 1)};
}

rfid::core::DeploymentConfig deployment_config(const DrainShape& shape,
                                               std::uint64_t session_seed) {
  rfid::core::DeploymentConfig config;
  config.readers = shape.readers;
  config.channels = shape.channels;
  config.kind = rfid::protocols::ProtocolKind::kTpp;
  config.session.seed = session_seed;
  config.session.keep_records = false;
  config.zone_overlap = shape.zone_overlap;
  config.churn_move_per_tick = shape.churn * 0.8;
  config.churn_depart_per_tick = shape.churn * 0.2;
  config.reader_faults = shape.faults;
  return config;
}

rfid::tags::TagPopulation build_population(const DrainShape& shape,
                                           std::uint64_t seed) {
  return rfid::tags::TagPopulation::uniform_random_sharded(
      shape.tags, seed, kPopulationShards);
}

double median_or_zero(const Samples& samples) {
  return samples.empty() ? 0.0 : samples.median();
}

/// The telemetry stack of serve-epochs: aggregator, service and server,
/// the per-tick feed, and the open-loop /metrics.json client and SSE
/// subscriber threads that load it.
class Telemetry final {
 public:
  Telemetry(std::size_t readers, std::size_t channels)
      : readers_(readers),
        channels_(channels),
        aggregator_(readers),
        service_(aggregator_),
        channel_rounds_base_(channels, 0),
        channel_busy_base_(channels, 0.0),
        completed_(readers) {
    aggregator_.configure_channels(channels);
    service_.install(server_);
    server_.start();
  }

  ~Telemetry() {
    stop_load();
    aggregator_.close_all();
    server_.stop();
    if (sse_.joinable()) sse_.join();
  }

  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  /// simserved's per-tick feed. `spans` (traced runs) receives the update
  /// and publish times.
  struct Spans final {
    double update_s = 0.0;
    std::uint64_t update_calls = 0;
    Samples publish_us;
  };
  void publish_tick(const rfid::core::Deployment& deployment, Spans* spans) {
    const Clock::time_point start = Clock::now();
    for (std::size_t r = 0; r < readers_; ++r) {
      aggregator_.update_reader(r, deployment.reader_metrics(r), 0.0);
      aggregator_.set_reader_health(r, deployment.reader_health(r));
    }
    for (std::size_t c = 0; c < channels_; ++c)
      aggregator_.update_channel(
          c, rfid::core::channel_population(c, readers_, channels_),
          channel_rounds_base_[c] + deployment.channel_rounds(c),
          channel_busy_base_[c] + deployment.channel_busy_us(c));
    aggregator_.set_fleet_counters(handoffs_base_ + deployment.handoffs(),
                                   departures_base_ +
                                       deployment.churn_departures());
    const Clock::time_point updated = Clock::now();
    (void)aggregator_.publish(seconds_between(last_publish_, updated));
    last_publish_ = Clock::now();
    if (spans != nullptr) {
      spans->update_s += seconds_between(start, updated);
      spans->update_calls += readers_;
      spans->publish_us.add(seconds_between(updated, last_publish_) * 1e6);
    }
  }

  /// Epoch boundary: folds the drained epoch into the aggregator, then
  /// round-trips a checkpoint of every reader's completed fold.
  void complete_epoch(const rfid::core::DeploymentReport& report,
                      std::uint64_t seed, Checks& checks, Samples* encode_us,
                      Samples* decode_us) {
    handoffs_base_ += report.handoffs;
    departures_base_ += report.churn_departures;
    for (std::size_t c = 0; c < report.per_channel.size(); ++c) {
      channel_rounds_base_[c] += report.per_channel[c].rounds;
      channel_busy_base_[c] += report.per_channel[c].busy_us;
    }
    for (std::size_t r = 0; r < readers_; ++r) {
      aggregator_.complete_epoch(r, report.per_reader_metrics[r]);
      completed_[r].merge(report.per_reader_metrics[r]);
    }
    ++epochs_;

    rfid::sim::Checkpoint checkpoint;
    std::uint64_t fingerprint = rfid::sim::fingerprint_mix(0, seed);
    fingerprint = rfid::sim::fingerprint_mix(fingerprint, readers_);
    fingerprint = rfid::sim::fingerprint_mix(fingerprint, channels_);
    checkpoint.config_fingerprint = fingerprint;
    checkpoint.master_seed = seed;
    checkpoint.readers.resize(readers_);
    for (std::size_t r = 0; r < readers_; ++r) {
      rfid::sim::ReaderCheckpoint& reader = checkpoint.readers[r];
      reader.epochs = epochs_;
      reader.crashes = completed_[r].reader_crashes;
      reader.restarts = completed_[r].reader_restarts;
      reader.health = report.per_reader_health[r];
      reader.completed = completed_[r];
    }
    const Clock::time_point start = Clock::now();
    rfid::sim::encode_into(checkpoint, checkpoint_bytes_);
    const Clock::time_point encoded = Clock::now();
    const rfid::sim::Checkpoint decoded =
        rfid::sim::decode(checkpoint_bytes_);
    const Clock::time_point decoded_at = Clock::now();
    rfid::sim::encode_into(decoded, reencoded_bytes_);
    checks.expect(reencoded_bytes_ == checkpoint_bytes_,
                  "checkpoint: decode(encode(c)) does not round-trip");
    if (encode_us != nullptr)
      encode_us->add(seconds_between(start, encoded) * 1e6);
    if (decode_us != nullptr)
      decode_us->add(seconds_between(encoded, decoded_at) * 1e6);
  }

  /// Starts the open-loop client and the SSE subscriber. Call after the
  /// first publish, so /metrics.json has a snapshot to serve.
  void start_load() {
    sse_ = std::thread([this] {
      sse_ok_ = read_sse_snapshots(server_.port(), "/events", sse_frames_);
    });
    // The subscriber's first frame is the late-joiner copy of the latest
    // snapshot; every publish after it should reach the stream.
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(5);
    while (sse_frames_.load() == 0 && Clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    sse_base_sequence_ = aggregator_.latest()->sequence;
    load_start_ = Clock::now();
    client_ = std::thread([this] { client_loop(); });
  }

  /// Stops the client (the SSE subscriber runs until the server closes).
  void stop_load() {
    stop_.store(true);
    if (client_.joinable()) client_.join();
  }

  struct LoadReport final {
    Samples latency_ms;   ///< due -> reply complete
    Samples response_ms;  ///< sent -> reply complete
    Samples connect_ms;
    Samples lag_ms;       ///< due -> sent
    std::uint64_t requests = 0;
    std::uint64_t failures = 0;
    double sse_delivered_frac = 0.0;
    bool sse_ok = false;
  };
  /// Stops the client, lets the subscriber drain, then closes the stream
  /// and the server and reports what both saw.
  LoadReport finish_load() {
    stop_load();
    const std::uint64_t published =
        aggregator_.latest()->sequence - sse_base_sequence_;
    // Let the subscriber drain what is queued before the stream closes:
    // wait while frames still arrive, up to two seconds.
    const Clock::time_point give_up = Clock::now() + std::chrono::seconds(2);
    std::uint64_t seen = sse_frames_.load();
    while (seen < published + 1 && Clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      const std::uint64_t now_seen = sse_frames_.load();
      if (now_seen == seen) break;
      seen = now_seen;
    }
    aggregator_.close_all();
    server_.stop();
    if (sse_.joinable()) sse_.join();
    load_.sse_ok = sse_ok_;
    const std::uint64_t frames = sse_frames_.load();
    load_.sse_delivered_frac =
        published == 0 ? 1.0
                       : std::min(1.0, static_cast<double>(
                                           frames > 0 ? frames - 1 : 0) /
                                           static_cast<double>(published));
    return std::move(load_);
  }

  [[nodiscard]] double snapshot_json_us() const {
    const auto snapshot = aggregator_.latest();
    Samples samples;
    for (int i = 0; i < 21; ++i) {
      const Clock::time_point start = Clock::now();
      keep(rfid::obs::to_json(*snapshot).size());
      samples.add(seconds_between(start, Clock::now()) * 1e6);
    }
    return samples.median();
  }

  [[nodiscard]] std::size_t checkpoint_bytes() const {
    return checkpoint_bytes_.size();
  }

 private:
  void client_loop() {
    const std::chrono::duration<double> period(1.0 / kRequestsPerSecond);
    std::uint64_t last_sequence = 0;
    for (std::uint64_t k = 0;; ++k) {
      const Clock::time_point due =
          load_start_ + std::chrono::duration_cast<Clock::duration>(
                            period * static_cast<double>(k));
      std::this_thread::sleep_until(due);
      if (stop_.load()) break;
      const Clock::time_point sent = Clock::now();
      const HttpReply reply = http_get(server_.port(), "/metrics.json");
      const Clock::time_point done = Clock::now();
      ++load_.requests;
      const std::optional<std::uint64_t> sequence = parse_sequence(reply.body);
      const bool ok = reply.ok && reply.status == 200 && sequence &&
                      *sequence >= last_sequence;
      if (sequence) last_sequence = std::max(last_sequence, *sequence);
      if (!ok) ++load_.failures;
      load_.latency_ms.add(seconds_between(due, done) * 1e3);
      load_.response_ms.add(seconds_between(sent, done) * 1e3);
      load_.connect_ms.add(reply.connect_s * 1e3);
      load_.lag_ms.add(seconds_between(due, sent) * 1e3);
    }
  }

  static std::optional<std::uint64_t> parse_sequence(const std::string& body) {
    static constexpr std::string_view kKey = "\"sequence\":";
    const std::size_t at = body.find(kKey);
    if (at == std::string::npos) return std::nullopt;
    std::uint64_t value = 0;
    std::size_t i = at + kKey.size();
    if (i >= body.size() || body[i] < '0' || body[i] > '9') return std::nullopt;
    for (; i < body.size() && body[i] >= '0' && body[i] <= '9'; ++i)
      value = value * 10 + static_cast<std::uint64_t>(body[i] - '0');
    return value;
  }

  const std::size_t readers_;
  const std::size_t channels_;
  rfid::obs::StreamingAggregator aggregator_;
  rfid::serve::TelemetryService service_;
  rfid::serve::HttpServer server_;
  Clock::time_point last_publish_ = Clock::now();
  std::uint64_t handoffs_base_ = 0;
  std::uint64_t departures_base_ = 0;
  std::vector<std::uint64_t> channel_rounds_base_;
  std::vector<double> channel_busy_base_;
  std::vector<rfid::obs::Metrics> completed_;
  std::uint64_t epochs_ = 0;
  std::vector<std::uint8_t> checkpoint_bytes_;
  std::vector<std::uint8_t> reencoded_bytes_;

  // Load generation. load_ is written only by the client thread until
  // stop_load() joins it.
  std::atomic<bool> stop_{false};
  Clock::time_point load_start_{};
  LoadReport load_;
  std::atomic<std::uint64_t> sse_frames_{0};
  std::uint64_t sse_base_sequence_ = 0;
  bool sse_ok_ = false;  ///< written by the SSE thread before it ends
  std::thread client_;
  std::thread sse_;
};

/// Top-level spans of one traced iteration.
struct DrainSpans final {
  double popgen_s = 0.0;
  double construct_s = 0.0;
  double ticks_s = 0.0;
  Samples tick_us;
  double finish_s = 0.0;
  double epoch_end_s = 0.0;  ///< aggregator fold + checkpoint (serve)
  double teardown_s = 0.0;   ///< population and deployment release
  /// Σ over ticks of active tags × channels / readers: the tags the churn
  /// scan visits (only scheduled readers scan).
  double scan_calls = 0.0;
  Telemetry::Spans telemetry;
  Samples checkpoint_encode_us;
  Samples checkpoint_decode_us;

  [[nodiscard]] double covered_s() const {
    return popgen_s + construct_s + ticks_s + telemetry.update_s +
           telemetry.publish_us.sum() * 1e-6 + finish_s + epoch_end_s +
           teardown_s;
  }
};

struct DrainRun final {
  double setup_s = 0.0;
  double drain_s = 0.0;
  rfid::core::DeploymentReport report;
  std::string digest;
};

class DrainWorkload final {
 public:
  DrainWorkload(const DrainShape& shape, const Options& options)
      : shape_(shape), options_(options) {}

  Result run();

 private:
  DrainRun drain_once(std::uint64_t iteration,
                      rfid::parallel::ThreadPool* pool, Telemetry* telemetry,
                      DrainSpans* spans);
  void check_drain(const DrainRun& run);
  void trace_layers(const DrainRun& first);

  DrainShape shape_;
  Options options_;
  Result result_;
};

DrainRun DrainWorkload::drain_once(std::uint64_t iteration,
                                   rfid::parallel::ThreadPool* pool,
                                   Telemetry* telemetry, DrainSpans* spans) {
  const IterationSeeds seeds = iteration_seeds(options_.seed, iteration);
  DrainRun run;
  const Clock::time_point start = Clock::now();
  Clock::time_point epoch_done;
  {
    const rfid::tags::TagPopulation population =
        build_population(shape_, seeds.population);
    const Clock::time_point built = Clock::now();
    rfid::core::Deployment deployment(
        population, deployment_config(shape_, seeds.session), pool);
    const Clock::time_point constructed = Clock::now();

    Telemetry::Spans* telemetry_spans =
        spans != nullptr ? &spans->telemetry : nullptr;
    const bool scan = spans != nullptr && shape_.churn > 0.0;
    for (;;) {
      if (scan)
        spans->scan_calls +=
            static_cast<double>(deployment.active_remaining()) *
            static_cast<double>(shape_.channels) /
            static_cast<double>(shape_.readers);
      const Clock::time_point tick_start = Clock::now();
      const bool more = deployment.tick();
      if (spans != nullptr) {
        const double tick_s = seconds_between(tick_start, Clock::now());
        spans->ticks_s += tick_s;
        spans->tick_us.add(tick_s * 1e6);
      }
      if (!more) break;
      if (telemetry != nullptr)
        telemetry->publish_tick(deployment, telemetry_spans);
    }
    const Clock::time_point finish_start = Clock::now();
    run.report = deployment.finish();
    const Clock::time_point finished = Clock::now();
    if (telemetry != nullptr)
      telemetry->complete_epoch(
          run.report, options_.seed, result_.checks,
          spans != nullptr ? &spans->checkpoint_encode_us : nullptr,
          spans != nullptr ? &spans->checkpoint_decode_us : nullptr);
    epoch_done = Clock::now();

    run.setup_s = seconds_between(start, constructed);
    run.drain_s = seconds_between(constructed, finished);
    if (spans != nullptr) {
      spans->popgen_s += seconds_between(start, built);
      spans->construct_s += seconds_between(built, constructed);
      spans->finish_s += seconds_between(finish_start, finished);
      spans->epoch_end_s += seconds_between(finished, epoch_done);
    }
  }
  if (spans != nullptr)
    spans->teardown_s += seconds_between(epoch_done, Clock::now());
  run.digest = digest(run.report.totals);
  return run;
}

void DrainWorkload::check_drain(const DrainRun& run) {
  const rfid::core::DeploymentReport& report = run.report;
  result_.checks.expect(report.verified, "drain: report not verified");
  result_.checks.expect(report.delivered + report.missing_ids.size() +
                                report.undelivered_ids.size() ==
                            shape_.tags,
                        "drain: delivered + missing + undelivered != n");
  result_.checks.expect(report.totals.avg_vector_bits() < kTppBitsBound,
                        "drain: TPP vector bits per tag >= 3.44 (Eq. 16)");
}

Result DrainWorkload::run() {
  result_.workload = shape_.name;
  result_.traced = options_.trace;
  result_.seed("master", options_.seed);

  std::optional<Telemetry> telemetry;
  if (shape_.serve) telemetry.emplace(shape_.readers, shape_.channels);
  Telemetry* feed = telemetry ? &*telemetry : nullptr;

  // Warm-up: caches, allocator arenas and (serve) the first publish.
  (void)drain_once(kWarmupIteration, nullptr, feed, nullptr);
  if (feed != nullptr) feed->start_load();

  Samples tags_per_s;
  Samples tags_per_s_untraced;  // trace runs alternate traced/untraced
  Samples setup_s;
  Samples epochs_per_s;  // 1 / iteration wall
  std::size_t iterations = 0;
  DrainSpans spans;
  double traced_wall_s = 0.0;
  std::size_t traced_tags = 0;
  DrainRun first;

  rfid::obs::Metrics sim_fold{};
  double makespan_s = 0.0;
  double ticks = 0.0;
  std::size_t undelivered = 0;

  const Clock::time_point loop_start = Clock::now();
  for (std::uint64_t i = 0;
       i < shape_.sim_iterations ||
       seconds_between(loop_start, Clock::now()) < options_.seconds;
       ++i) {
    const bool traced = options_.trace && i % 2 == 0;
    const Clock::time_point start = Clock::now();
    DrainRun run = drain_once(i, nullptr, feed, traced ? &spans : nullptr);
    const double iteration_s = seconds_between(start, Clock::now());
    check_drain(run);

    const IterationSeeds seeds = iteration_seeds(options_.seed, i);
    result_.seed("population[" + std::to_string(i) + "]", seeds.population);
    result_.seed("session[" + std::to_string(i) + "]", seeds.session);
    const double rate = static_cast<double>(shape_.tags) / run.drain_s;
    (traced || !options_.trace ? tags_per_s : tags_per_s_untraced).add(rate);
    setup_s.add(run.setup_s);
    epochs_per_s.add(1.0 / iteration_s);
    ++iterations;
    if (traced) {
      traced_wall_s += iteration_s;
      traced_tags += shape_.tags;
    }
    if (i < shape_.sim_iterations) {
      sim_fold.merge(run.report.totals);
      makespan_s += run.report.makespan_s;
      ticks += static_cast<double>(run.report.ticks);
      undelivered += run.report.undelivered_ids.size();
    }
    if (i == 0) first = std::move(run);
  }

  std::optional<Telemetry::LoadReport> load;
  if (feed != nullptr) {
    load = feed->finish_load();
    result_.checks.count(load->requests, load->failures,
                         "/metrics.json: non-200 reply or decreasing sequence");
    result_.checks.expect(load->sse_ok, "/events: subscriber failed");
  }

  const std::size_t k = shape_.sim_iterations;
  const double sim_tags = static_cast<double>(shape_.tags * k);
  result_.digests.emplace_back("sim_fold", digest(sim_fold));
  result_.digests.emplace_back("iteration0", first.digest);

  if (!options_.trace) {
    if (shape_.pool_check) {
      rfid::parallel::ThreadPool pool(kPoolThreads);
      const DrainRun pooled = drain_once(0, &pool, nullptr, nullptr);
      result_.checks.expect(pooled.digest == first.digest,
                            "drain: serial and pooled metrics differ");
    }
    result_.add("tags_per_s", "tags/s", tags_per_s);
    result_.add("setup_s", "s", setup_s);
    result_.add("epochs_per_s", "1/s", epochs_per_s);
    result_.add("peak_rss_mb", "MB", peak_rss_mb());
    result_.add("sim_us_per_tag", "sim_us/tag", sim_fold.time_us / sim_tags);
    result_.add("vector_bits_per_tag", "bits/tag", sim_fold.avg_vector_bits());
    result_.add("sim_makespan_s", "sim_s", makespan_s / static_cast<double>(k));
    result_.add("undelivered_frac", "fraction",
                static_cast<double>(undelivered) / sim_tags);
    if (load) {
      result_.add("snapshot_p50_ms", "ms", load->latency_ms.quantile(0.5));
      result_.add("snapshot_p99_ms", "ms", load->latency_ms.quantile(0.99));
      result_.add("snapshot_requests", "count",
                  static_cast<double>(load->requests));
    }
    result_.add("iterations", "count", static_cast<double>(iterations));
    return std::move(result_);
  }

  // --- Traced run: span-derived layer metrics ------------------------------
  const double n_traced = static_cast<double>(traced_tags);
  const std::size_t traced_iterations = traced_tags / shape_.tags;
  const double per_iteration = 1.0 / static_cast<double>(traced_iterations);
  result_.add("tags.popgen_ns_per_tag", "ns/tag",
              spans.popgen_s * 1e9 / n_traced);
  result_.add("core.construct_ns_per_tag", "ns/tag",
              spans.construct_s * 1e9 / n_traced);
  result_.add("core.tick_ns_per_tag", "ns/tag", spans.ticks_s * 1e9 / n_traced);
  result_.add("core.tick_p50_us", "us", spans.tick_us.quantile(0.5));
  result_.add("core.tick_p99_us", "us", spans.tick_us.quantile(0.99));
  result_.add("core.ticks", "count", ticks / static_cast<double>(k));
  result_.add("core.finish_us", "us", spans.finish_s * 1e6 * per_iteration);
  result_.add("core.handoffs_per_tag", "1/tag",
              static_cast<double>(sim_fold.handoffs) / sim_tags);
  result_.add("protocols.rounds", "count",
              static_cast<double>(sim_fold.rounds) / static_cast<double>(k));
  result_.add("protocols.polls_per_round", "count",
              static_cast<double>(sim_fold.polls) /
                  static_cast<double>(sim_fold.rounds));
  result_.add("fault.crashes", "count",
              static_cast<double>(sim_fold.reader_crashes) /
                  static_cast<double>(k));
  result_.add("fault.restarts", "count",
              static_cast<double>(sim_fold.reader_restarts) /
                  static_cast<double>(k));
  if (feed != nullptr) {
    result_.add("obs.update_reader_ns", "ns",
                spans.telemetry.update_s * 1e9 /
                    static_cast<double>(spans.telemetry.update_calls));
    result_.add("obs.publish_us", "us", spans.telemetry.publish_us.median());
    result_.add("obs.snapshot_json_us", "us", feed->snapshot_json_us());
    result_.add("obs.sse_delivered_frac", "fraction", load->sse_delivered_frac);
    result_.add("serve.connect_ms_p50", "ms", load->connect_ms.quantile(0.5));
    result_.add("serve.response_ms_p50", "ms",
                load->response_ms.quantile(0.5));
    result_.add("serve.response_ms_p99", "ms",
                load->response_ms.quantile(0.99));
    result_.add("serve.generator_lag_p99_ms", "ms",
                load->lag_ms.quantile(0.99));
    result_.add("sim.checkpoint_encode_us", "us",
                spans.checkpoint_encode_us.median());
    result_.add("sim.checkpoint_decode_us", "us",
                spans.checkpoint_decode_us.median());
    result_.add("sim.checkpoint_bytes", "bytes",
                static_cast<double>(feed->checkpoint_bytes()));
  }
  result_.add("trace.coverage", "fraction", spans.covered_s() / traced_wall_s);
  result_.add("trace.overhead", "ratio",
              median_or_zero(tags_per_s) / median_or_zero(tags_per_s_untraced));
  trace_layers(first);
  return std::move(result_);
}

/// Replays iteration 0 layer by layer.
void DrainWorkload::trace_layers(const DrainRun& first) {
  const IterationSeeds seeds = iteration_seeds(options_.seed, 0);
  const rfid::core::DeploymentConfig config =
      deployment_config(shape_, seeds.session);
  const double n = static_cast<double>(shape_.tags);

  const std::size_t heap_before = heap_bytes_in_use();
  const rfid::tags::TagPopulation population =
      build_population(shape_, seeds.population);
  result_.add("tags.bytes_per_tag", "B/tag",
              heap_growth(heap_before, heap_bytes_in_use()) / n);

  // Initial placement, as the Deployment constructor does it.
  std::vector<rfid::tags::TagSoA> shares(shape_.readers);
  Clock::time_point start = Clock::now();
  for (const rfid::tags::Tag& tag : population) {
    const std::size_t home =
        rfid::core::reader_of(tag.id(), config.readers, config.partition_seed);
    shares[rfid::core::owner_in_zone(tag.id(), home, config)].push_back(&tag);
  }
  const double place_s = seconds_between(start, Clock::now());
  result_.add("core.place_ns_per_tag", "ns/tag", place_s * 1e9 / n);

  // The churn scan's calls at the middle tick of the drain, each tag from
  // its own home zone: churn_position and owner_in_zone alone, then the
  // scan's whole per-tag sequence (reader_of, churn_position from that
  // home, owner_in_zone of the position's zone).
  const std::uint64_t mid_tick =
      std::max<std::uint64_t>(1, first.report.ticks / 2);
  std::vector<std::uint32_t> homes;
  std::vector<std::uint32_t> zones;
  homes.reserve(population.size());
  zones.reserve(population.size());
  for (const rfid::tags::Tag& tag : population) {
    const std::size_t home =
        rfid::core::reader_of(tag.id(), config.readers, config.partition_seed);
    homes.push_back(static_cast<std::uint32_t>(home));
    zones.push_back(static_cast<std::uint32_t>(
        rfid::core::churn_position(tag.id(), home, mid_tick, config).zone));
  }
  std::uint64_t sink = 0;
  start = Clock::now();
  for (std::size_t i = 0; i < population.size(); ++i)
    sink += rfid::core::churn_position(population[i].id(), homes[i], mid_tick,
                                       config)
                .moves;
  const double churn_s = seconds_between(start, Clock::now());
  start = Clock::now();
  for (std::size_t i = 0; i < population.size(); ++i)
    sink += rfid::core::owner_in_zone(population[i].id(), zones[i], config);
  const double owner_s = seconds_between(start, Clock::now());
  start = Clock::now();
  for (const rfid::tags::Tag& tag : population) {
    const std::size_t home =
        rfid::core::reader_of(tag.id(), config.readers, config.partition_seed);
    const rfid::core::ChurnPosition position =
        rfid::core::churn_position(tag.id(), home, mid_tick, config);
    if (!position.departed)
      sink += rfid::core::owner_in_zone(tag.id(), position.zone, config);
  }
  const double scan_ns = seconds_between(start, Clock::now()) * 1e9 / n;
  keep(sink);
  result_.add("core.churn_position_ns", "ns", churn_s * 1e9 / n);
  result_.add("core.owner_in_zone_ns", "ns", owner_s * 1e9 / n);

  // Supervisor deadline sweeps over the drain's tick count.
  {
    rfid::fault::ReaderSupervisor supervisor(shape_.readers, config.supervisor);
    const std::uint64_t ticks = std::max<std::uint64_t>(1, first.report.ticks);
    double advance_s = 0.0;
    for (std::uint64_t tick = 1; tick <= ticks; ++tick) {
      for (std::size_t c = 0; c < shape_.channels; ++c)
        supervisor.note_round_complete(
            rfid::core::scheduled_reader(c, shape_.readers, shape_.channels,
                                         tick),
            tick);
      const Clock::time_point t0 = Clock::now();
      supervisor.advance(tick);
      advance_s += seconds_between(t0, Clock::now());
    }
    result_.add("fault.supervisor_advance_ns", "ns",
                advance_s * 1e9 / static_cast<double>(ticks));
  }

  // Each reader's share through the public round engine, seeded as the
  // Deployment seeds its first incarnation.
  std::vector<RoundShape> shapes;
  double build_s = 0.0;
  double rounds_s = 0.0;
  rfid::obs::Metrics replay_fold{};
  for (std::size_t r = 0; r < shape_.readers; ++r) {
    rfid::sim::SessionConfig session = config.session;
    session.seed = derive_seed(derive_seed(config.session.seed, r), 0);
    const SessionReplay replay =
        replay_session(config.kind, population, session, shares[r], shapes);
    build_s += replay.build_s;
    rounds_s += replay.rounds_s;
    rfid::obs::Metrics folded{};
    folded.merge(replay.metrics);
    replay_fold.merge(folded);
  }
  result_.add("sim.session_build_us", "us",
              build_s * 1e6 / static_cast<double>(shape_.readers));
  result_.add("protocols.round_ns_per_tag", "ns/tag", rounds_s * 1e9 / n);
  const bool clean = shape_.churn == 0.0 && !shape_.faults.enabled();
  if (clean)
    result_.checks.expect(
        digest(replay_fold) == first.digest,
        "replay: folded round-engine metrics differ from the drain");

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

  // Serial against pooled, fresh drains of iteration 0 without telemetry;
  // both must fold to the traced drain's metrics. The serial drain's spans
  // give the scan's share of serial tick time (pooled ticks overlap it).
  rfid::parallel::ThreadPool pool(kPoolThreads);
  DrainSpans serial_spans;
  const DrainRun serial = drain_once(0, nullptr, nullptr, &serial_spans);
  const DrainRun pooled = drain_once(0, &pool, nullptr, nullptr);
  result_.checks.expect(
      serial.digest == first.digest && pooled.digest == first.digest,
      "drain: serial, pooled and traced metrics differ");
  const double scan_s = scan_ns * 1e-9 * serial_spans.scan_calls;
  result_.add("core.churn_scan_share", "fraction",
              scan_s / serial_spans.ticks_s);
  result_.add("parallel.pool_speedup", "ratio",
              serial.drain_s / pooled.drain_s);
  result_.add("trace.replay_coverage", "fraction",
              (rounds_s + scan_s) / serial.drain_s);
}

}  // namespace

Result run_clean_tpp(const Options& options) {
  DrainShape shape{.name = "clean-tpp",
                   .tags = 1'000'000,
                   .readers = 64,
                   .channels = 8,
                   .zone_overlap = 0.0,
                   .churn = 0.0,
                   .faults = {},
                   .pool_check = false,
                   .serve = false,
                   .sim_iterations = 4};
  if (options.smoke) shape.tags = 20'000;
  return DrainWorkload(shape, options).run();
}

Result run_churn_fleet(const Options& options) {
  rfid::fault::ReaderFaultConfig faults;
  faults.crash_per_tick = 2e-4;
  faults.stall_per_tick = 4e-4;
  faults.restart_per_tick = 1e-4;
  DrainShape shape{.name = "churn-fleet",
                   .tags = 1'000'000,
                   .readers = 256,
                   .channels = 16,
                   .zone_overlap = 0.2,
                   .churn = 0.002,
                   .faults = faults,
                   .pool_check = true,
                   .serve = false,
                   .sim_iterations = 3};
  if (options.smoke) shape.tags = 20'000;
  return DrainWorkload(shape, options).run();
}

Result run_serve_epochs(const Options& options) {
  DrainShape shape{.name = "serve-epochs",
                   .tags = 200'000,
                   .readers = 16,
                   .channels = 4,
                   .zone_overlap = 0.1,
                   .churn = 0.001,
                   .faults = {},
                   .pool_check = false,
                   .serve = true,
                   .sim_iterations = 8};
  if (options.smoke) {
    shape.tags = 4'000;
    shape.sim_iterations = 2;
  }
  return DrainWorkload(shape, options).run();
}

}  // namespace rfidbench
