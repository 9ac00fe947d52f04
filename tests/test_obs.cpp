// Tests for the observability subsystem: event tracing (sinks, metric
// identities, phase replay), histograms, phase accounting, snapshot JSON
// stability, and the strict numeric argument parser.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdlib>
#include <limits>
#include <sstream>

#include "common/env.hpp"
#include "core/polling.hpp"
#include "obs/histogram.hpp"
#include "obs/stream.hpp"
#include "obs/trace.hpp"
#include "parallel/trial_runner.hpp"
#include "protocols/tree_polling.hpp"

namespace rfid {
namespace {

sim::RunResult traced_run(core::ProtocolKind kind, std::size_t n,
                          obs::TraceSink& sink, std::uint64_t seed = 7,
                          double noise = 0.0) {
  Xoshiro256ss rng(2026);
  const auto pop = tags::TagPopulation::uniform_random(n, rng);
  sim::SessionConfig config;
  config.seed = seed;
  config.keep_records = false;
  if (noise > 0.0) {
    config.fault.link = fault::LinkModel::kBernoulli;
    config.fault.bernoulli_loss = noise;
  }
  config.tracer = &sink;
  return protocols::make_protocol(kind)->run(pop, config);
}

/// Feeds one run's events to two sinks.
class TeeSink final : public obs::TraceSink {
 public:
  TeeSink(obs::TraceSink& first, obs::TraceSink& second)
      : first_(first), second_(second) {}
  void on_event(const obs::Event& event) override {
    first_.on_event(event);
    second_.on_event(event);
  }
  void on_finish() override {
    first_.on_finish();
    second_.on_finish();
  }

 private:
  obs::TraceSink& first_;
  obs::TraceSink& second_;
};

std::uint64_t count_kind(const std::vector<obs::Event>& events,
                         obs::EventKind kind) {
  std::uint64_t count = 0;
  for (const obs::Event& event : events) count += event.kind == kind;
  return count;
}

// --- Event stream vs metrics: the lossless-decomposition contract ----------

TEST(Trace, TppEventsSumExactlyToMetrics) {
  // The acceptance bar: a TPP run over n = 2000 through the JSONL sink must
  // decompose the metrics exactly — summed vector bits, tag bits, and the
  // duration fold all equal the Metrics totals, and every poll shows up
  // as one reply event.
  std::ostringstream jsonl;
  obs::JsonlSink jsonl_sink(jsonl);
  obs::RingBufferSink ring(1u << 16);
  TeeSink tee(jsonl_sink, ring);

  const auto result = traced_run(core::ProtocolKind::kTpp, 2000, tee);
  ASSERT_EQ(ring.dropped(), 0u);

  EXPECT_EQ(ring.sum_vector_bits(), result.metrics.vector_bits);
  EXPECT_EQ(ring.sum_command_bits(), result.metrics.command_bits);
  EXPECT_EQ(ring.sum_tag_bits(), result.metrics.tag_bits);
  // Durations are the very doubles the session clock added, folded in the
  // same order — bit-exact equality, not approximate.
  EXPECT_EQ(ring.sum_duration_us(), result.metrics.time_us);

  const auto events = ring.snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().time_us, result.metrics.time_us);
  EXPECT_EQ(events.back().round, result.metrics.rounds);
  EXPECT_EQ(count_kind(events, obs::EventKind::kReply), result.metrics.polls);

  // JSONL: one meta line + one line per event, all parseable back into the
  // same totals (precision-17 doubles round-trip).
  std::istringstream lines(jsonl.str());
  std::string line;
  ASSERT_TRUE(std::getline(lines, line));
  EXPECT_NE(line.find("\"schema\":\"rfid-trace\""), std::string::npos);
  std::uint64_t event_lines = 0, vector_bits = 0, tag_bits = 0;
  double clock = 0.0;
  const auto num_field = [](const std::string& text, const char* key) {
    const std::string needle = '"' + std::string(key) + "\":";
    const auto pos = text.find(needle);
    EXPECT_NE(pos, std::string::npos) << key << " in " << text;
    return std::strtod(text.c_str() + pos + needle.size(), nullptr);
  };
  while (std::getline(lines, line)) {
    ++event_lines;
    vector_bits += static_cast<std::uint64_t>(num_field(line, "vector_bits"));
    tag_bits += static_cast<std::uint64_t>(num_field(line, "tag_bits"));
    clock += num_field(line, "duration_us");
  }
  EXPECT_EQ(event_lines, ring.total_events());
  EXPECT_EQ(vector_bits, result.metrics.vector_bits);
  EXPECT_EQ(tag_bits, result.metrics.tag_bits);
  EXPECT_EQ(clock, result.metrics.time_us);
}

TEST(Trace, EventDecompositionHoldsAcrossProtocolFamilies) {
  for (const auto kind :
       {core::ProtocolKind::kHpp, core::ProtocolKind::kEhpp,
        core::ProtocolKind::kCpp, core::ProtocolKind::kMic,
        core::ProtocolKind::kDfsa}) {
    obs::RingBufferSink ring(1u << 18);
    const auto result = traced_run(kind, 500, ring);
    ASSERT_EQ(ring.dropped(), 0u) << result.protocol;
    EXPECT_EQ(ring.sum_vector_bits(), result.metrics.vector_bits)
        << result.protocol;
    EXPECT_EQ(ring.sum_command_bits(), result.metrics.command_bits)
        << result.protocol;
    EXPECT_EQ(ring.sum_tag_bits(), result.metrics.tag_bits)
        << result.protocol;
    EXPECT_EQ(ring.sum_duration_us(), result.metrics.time_us)
        << result.protocol;
  }
}

/// The channel setups the phase replay is checked on.
enum class ReplaySetup { kClean, kFramedBer, kBernoulliLoss, kBurstyFramed };

sim::SessionConfig replay_config(ReplaySetup setup) {
  sim::SessionConfig config;
  config.seed = 13;
  config.keep_records = false;
  switch (setup) {
    case ReplaySetup::kClean:
      break;
    case ReplaySetup::kFramedBer:
      config.framing.enabled = true;
      config.fault.downlink_ber = 0.002;
      config.recovery.enabled = true;
      break;
    case ReplaySetup::kBernoulliLoss:
      config.fault.link = fault::LinkModel::kBernoulli;
      config.fault.bernoulli_loss = 0.1;
      config.recovery.enabled = true;
      break;
    case ReplaySetup::kBurstyFramed:
      config.fault.link = fault::LinkModel::kGilbertElliott;
      config.fault.downlink_ber = 0.005;
      config.framing.enabled = true;
      config.framing.segment_payload_bits = 32;
      config.recovery.enabled = true;
      config.recovery.retry_budget = 12;
      break;
  }
  return config;
}

TEST(Trace, ReplayedPhasesEqualTheSession) {
  // obs::replay_phases over a run's events must charge every phase as the
  // session did: recovery scopes, framed retransmissions and NACK windows
  // to kRecovery, and a framed first attempt split between its w-counted
  // payload and its command armor.
  Xoshiro256ss rng(2026);
  const auto pop = tags::TagPopulation::uniform_random(300, rng);
  for (const auto setup :
       {ReplaySetup::kClean, ReplaySetup::kFramedBer,
        ReplaySetup::kBernoulliLoss, ReplaySetup::kBurstyFramed}) {
    for (const auto kind : protocols::all_protocols()) {
      obs::RingBufferSink ring(1u << 16);
      sim::SessionConfig config = replay_config(setup);
      config.tracer = &ring;
      const auto result = protocols::make_protocol(kind)->run(pop, config);
      ASSERT_EQ(ring.dropped(), 0u) << result.protocol;
      obs::PhaseBreakdown replayed{};
      for (const obs::Event& event : ring.snapshot())
        obs::replay_phases(event, replayed);
      for (std::size_t p = 0; p < obs::kPhaseCount; ++p) {
        const auto phase = static_cast<obs::Phase>(p);
        EXPECT_NEAR(replayed.get(phase), result.metrics.phases.get(phase),
                    1e-9 * result.metrics.time_us)
            << result.protocol << " setup " << static_cast<int>(setup)
            << " phase " << to_string(phase);
      }
    }
  }
}

TEST(Trace, NoiseAndCirclesShowUpAsEvents) {
  obs::RingBufferSink ring(1u << 16);
  const auto result =
      traced_run(core::ProtocolKind::kEhpp, 800, ring, 11, 0.15);
  ASSERT_EQ(ring.dropped(), 0u);
  const auto events = ring.snapshot();
  EXPECT_EQ(count_kind(events, obs::EventKind::kCircleBegin),
            result.metrics.circles);
  EXPECT_EQ(count_kind(events, obs::EventKind::kCorrupted),
            result.metrics.corrupted);
  EXPECT_EQ(count_kind(events, obs::EventKind::kRoundBegin),
            result.metrics.rounds);
  EXPECT_GT(result.metrics.corrupted, 0u);
  EXPECT_GT(result.metrics.circles, 0u);
}

TEST(Trace, DisabledTracerIsByteIdentical) {
  obs::RingBufferSink ring(8);
  const auto with = traced_run(core::ProtocolKind::kTpp, 600, ring);
  Xoshiro256ss rng(2026);
  const auto pop = tags::TagPopulation::uniform_random(600, rng);
  sim::SessionConfig config;
  config.seed = 7;
  config.keep_records = false;
  const auto without =
      protocols::make_protocol(core::ProtocolKind::kTpp)->run(pop, config);
  EXPECT_EQ(with.metrics.time_us, without.metrics.time_us);  // bitwise
  EXPECT_EQ(with.metrics.vector_bits, without.metrics.vector_bits);
  EXPECT_EQ(with.metrics.polls, without.metrics.polls);
  EXPECT_EQ(with.metrics.rounds, without.metrics.rounds);
}

TEST(Trace, RingBufferKeepsNewestAndCountsDropped) {
  obs::RingBufferSink ring(4);
  obs::Event event;
  for (int i = 0; i < 10; ++i) {
    event.round = static_cast<std::uint64_t>(i);
    event.duration_us = 1.0;
    ring.on_event(event);
  }
  EXPECT_EQ(ring.total_events(), 10u);
  EXPECT_EQ(ring.dropped(), 6u);
  const auto kept = ring.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().round, 6u);
  EXPECT_EQ(kept.back().round, 9u);
  EXPECT_DOUBLE_EQ(ring.sum_duration_us(), 10.0);  // totals span all events
}

TEST(Trace, EventKindNamesRoundTrip) {
  for (std::size_t k = 0; k < obs::kEventKindCount; ++k) {
    const auto kind = static_cast<obs::EventKind>(k);
    obs::EventKind parsed;
    ASSERT_TRUE(obs::parse_event_kind(to_string(kind), parsed));
    EXPECT_EQ(parsed, kind);
  }
  obs::EventKind parsed;
  EXPECT_FALSE(obs::parse_event_kind("quux", parsed));
}

// --- Phase accounting -------------------------------------------------------

TEST(Phases, PartitionTheClockAcrossProtocols) {
  for (const auto kind :
       {core::ProtocolKind::kTpp, core::ProtocolKind::kHpp,
        core::ProtocolKind::kEhpp, core::ProtocolKind::kCpp,
        core::ProtocolKind::kMic, core::ProtocolKind::kDfsa}) {
    Xoshiro256ss rng(5);
    const auto pop = tags::TagPopulation::uniform_random(400, rng);
    sim::SessionConfig config;
    config.seed = 3;
    const auto result = protocols::make_protocol(kind)->run(pop, config);
    EXPECT_NEAR(result.metrics.phases.total_us(), result.metrics.time_us,
                1e-9 * result.metrics.time_us)
        << result.protocol;
  }
}

TEST(Phases, CleanPollingWastesNothingAlohaWastesSomething) {
  Xoshiro256ss rng(6);
  const auto pop = tags::TagPopulation::uniform_random(300, rng);
  sim::SessionConfig config;
  config.seed = 4;
  const auto tpp =
      protocols::make_protocol(core::ProtocolKind::kTpp)->run(pop, config);
  EXPECT_EQ(tpp.metrics.phases.get(obs::Phase::kWastedSlot), 0.0);
  EXPECT_GT(tpp.metrics.phases.get(obs::Phase::kReaderVector), 0.0);
  EXPECT_GT(tpp.metrics.phases.get(obs::Phase::kTurnaround), 0.0);
  EXPECT_GT(tpp.metrics.phases.get(obs::Phase::kTagReply), 0.0);
  const auto dfsa =
      protocols::make_protocol(core::ProtocolKind::kDfsa)->run(pop, config);
  EXPECT_GT(dfsa.metrics.phases.get(obs::Phase::kWastedSlot), 0.0);
}

// --- Metrics::merge (all fields) -------------------------------------------

TEST(MetricsMerge, AccumulatesEveryField) {
  sim::Metrics a, b;
  a.polls = 1;
  a.missing = 2;
  a.corrupted = 3;
  a.rounds = 4;
  a.circles = 5;
  a.slots_total = 6;
  a.slots_useful = 7;
  a.slots_wasted = 8;
  a.vector_bits = 9;
  a.command_bits = 10;
  a.tag_bits = 11;
  a.time_us = 12.5;
  a.phases.add(obs::Phase::kReaderVector, 1.5);
  a.phases.add(obs::Phase::kWastedSlot, 11.0);
  b.polls = 100;
  b.missing = 200;
  b.corrupted = 300;
  b.rounds = 400;
  b.circles = 500;
  b.slots_total = 600;
  b.slots_useful = 700;
  b.slots_wasted = 800;
  b.vector_bits = 900;
  b.command_bits = 1000;
  b.tag_bits = 1100;
  b.time_us = 1200.25;
  b.phases.add(obs::Phase::kCommand, 1200.25);
  a.merge(b);
  EXPECT_EQ(a.polls, 101u);
  EXPECT_EQ(a.missing, 202u);
  EXPECT_EQ(a.corrupted, 303u);
  EXPECT_EQ(a.rounds, 404u);
  EXPECT_EQ(a.circles, 505u);
  EXPECT_EQ(a.slots_total, 606u);
  EXPECT_EQ(a.slots_useful, 707u);
  EXPECT_EQ(a.slots_wasted, 808u);
  EXPECT_EQ(a.vector_bits, 909u);
  EXPECT_EQ(a.command_bits, 1010u);
  EXPECT_EQ(a.tag_bits, 1111u);
  EXPECT_DOUBLE_EQ(a.time_us, 1212.75);
  EXPECT_DOUBLE_EQ(a.phases.get(obs::Phase::kReaderVector), 1.5);
  EXPECT_DOUBLE_EQ(a.phases.get(obs::Phase::kCommand), 1200.25);
  EXPECT_DOUBLE_EQ(a.phases.get(obs::Phase::kWastedSlot), 11.0);
  EXPECT_DOUBLE_EQ(a.phases.total_us(), a.time_us);
}

TEST(MetricsMerge, MergeWithDefaultIsIdentity) {
  sim::Metrics a;
  a.polls = 7;
  a.time_us = 3.25;
  a.circles = 2;
  a.corrupted = 1;
  const sim::Metrics before = a;
  a.merge(sim::Metrics{});
  EXPECT_EQ(a.polls, before.polls);
  EXPECT_EQ(a.circles, before.circles);
  EXPECT_EQ(a.corrupted, before.corrupted);
  EXPECT_DOUBLE_EQ(a.time_us, before.time_us);
}

// --- Histograms -------------------------------------------------------------

TEST(Histogram, RecordsAndInterpolatesQuantiles) {
  auto h = obs::Histogram::linear(0.0, 100.0, 100);
  for (int i = 0; i < 100; ++i) h.record(static_cast<double>(i) + 0.5);
  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.mean(), 50.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 99.5);
  EXPECT_NEAR(h.quantile(0.5), 50.0, 1.0);
  EXPECT_NEAR(h.quantile(0.99), 99.0, 1.5);
}

TEST(Histogram, UnderflowAndOverflowAreBucketed) {
  auto h = obs::Histogram::linear(0.0, 10.0, 10);
  h.record(-5.0);
  h.record(50.0);
  h.record(5.0);
  EXPECT_EQ(h.counts().front(), 1u);  // underflow
  EXPECT_EQ(h.counts().back(), 1u);   // overflow
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), -5.0);
  EXPECT_DOUBLE_EQ(h.max(), 50.0);
}

TEST(Histogram, ExponentialEdgesGrowGeometrically) {
  const auto h = obs::Histogram::exponential(100.0, 2.0, 4);
  const auto& edges = h.edges();
  ASSERT_EQ(edges.size(), 5u);
  EXPECT_DOUBLE_EQ(edges[0], 100.0);
  EXPECT_DOUBLE_EQ(edges[4], 1600.0);
}

TEST(Histogram, InvalidConstructionThrows) {
  EXPECT_THROW(obs::Histogram({1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram({1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(obs::Histogram::linear(5.0, 5.0, 10), std::invalid_argument);
  EXPECT_THROW(obs::Histogram::exponential(0.0, 2.0, 4),
               std::invalid_argument);
}

// --- Strict numeric parsing (shared by the examples) ------------------------

// --- RingBufferSink wraparound and snapshot interleaving --------------------

TEST(Trace, RingBufferWraparoundIsExactAtTheBoundary) {
  obs::RingBufferSink ring(4);
  obs::Event event;
  // Exactly at capacity: nothing dropped, order preserved.
  for (int i = 0; i < 4; ++i) {
    event.round = static_cast<std::uint64_t>(i);
    ring.on_event(event);
  }
  EXPECT_EQ(ring.dropped(), 0u);
  auto kept = ring.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().round, 0u);
  EXPECT_EQ(kept.back().round, 3u);
  // One past capacity: exactly the oldest event leaves.
  event.round = 4;
  ring.on_event(event);
  EXPECT_EQ(ring.dropped(), 1u);
  kept = ring.snapshot();
  ASSERT_EQ(kept.size(), 4u);
  EXPECT_EQ(kept.front().round, 1u);
  EXPECT_EQ(kept.back().round, 4u);
}

TEST(Trace, RingBufferSnapshotInterleavingDisturbsNothing) {
  // snapshot() mid-stream is a pure read: alternating on_event/snapshot
  // must leave totals and retention identical to an uninterrupted run.
  obs::RingBufferSink interleaved(3);
  obs::RingBufferSink straight(3);
  obs::Event event;
  for (int i = 0; i < 11; ++i) {
    event.round = static_cast<std::uint64_t>(i);
    event.duration_us = 0.5 * i;
    event.vector_bits = static_cast<std::uint64_t>(i);
    interleaved.on_event(event);
    straight.on_event(event);
    const auto mid = interleaved.snapshot();  // interleaved read each write
    ASSERT_FALSE(mid.empty());
    EXPECT_EQ(mid.back().round, static_cast<std::uint64_t>(i));
    EXPECT_LE(mid.size(), 3u);
  }
  EXPECT_EQ(interleaved.total_events(), straight.total_events());
  EXPECT_EQ(interleaved.dropped(), straight.dropped());
  EXPECT_EQ(interleaved.sum_vector_bits(), straight.sum_vector_bits());
  EXPECT_DOUBLE_EQ(interleaved.sum_duration_us(),
                   straight.sum_duration_us());
  const auto a = interleaved.snapshot();
  const auto b = straight.snapshot();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(a[i].round, b[i].round);
}

// --- MetricsSnapshot JSON: byte-stability across execution modes ------------

TEST(Stream, SnapshotJsonIsByteStableSerialVsPooled) {
  // The determinism gate pins serial and RFID_THREADS=4 pooled folds
  // byte-identical; the streaming snapshot JSON on top of them must
  // inherit that: same totals in, same bytes out.
  protocols::Tpp tpp;
  parallel::TrialPlan plan;
  plan.trials = 8;
  plan.master_seed = 77;
  const auto serial = run_trials(tpp, parallel::uniform_population(300), plan);
  parallel::ThreadPool pool(4);
  const auto pooled =
      run_trials(tpp, parallel::uniform_population(300), plan, &pool);

  const auto snapshot_json = [](const sim::Metrics& totals) {
    obs::StreamingAggregator aggregator(2);
    aggregator.update_reader(0, totals, 1.25e-4);
    aggregator.complete_epoch(1, totals);
    aggregator.set_retry_budget(1, 8);
    return obs::to_json(*aggregator.publish(0.5));
  };
  const std::string from_serial = snapshot_json(serial.totals);
  const std::string from_pooled = snapshot_json(pooled.totals);
  EXPECT_EQ(from_serial, from_pooled);  // byte-for-byte

  // And the JSON is structurally what /metrics.json serves.
  EXPECT_NE(from_serial.find(R"("type":"snapshot")"), std::string::npos);
  EXPECT_NE(from_serial.find(R"("sequence":1)"), std::string::npos);
  EXPECT_NE(from_serial.find(R"("readers":[)"), std::string::npos);
  EXPECT_NE(from_serial.find(R"("phases":{)"), std::string::npos);
}

TEST(ParseArgs, ParseU64AcceptsOnlyCleanDigits) {
  EXPECT_EQ(parse_u64("0"), 0u);
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(parse_u64(""));
  EXPECT_FALSE(parse_u64("12x"));      // trailing garbage
  EXPECT_FALSE(parse_u64(" 12"));      // leading space
  EXPECT_FALSE(parse_u64("-3"));       // sign
  EXPECT_FALSE(parse_u64("+3"));
  EXPECT_FALSE(parse_u64("1e4"));      // no scientific notation
  EXPECT_FALSE(parse_u64("18446744073709551616"));  // overflow
  EXPECT_FALSE(parse_u64("99999999999999999999999"));
}

TEST(ParseArgs, ParseSizeArgRejectsZeroByDefault) {
  EXPECT_EQ(parse_size_arg("2000"), 2000u);
  EXPECT_FALSE(parse_size_arg("0"));
  EXPECT_EQ(parse_size_arg("0", /*allow_zero=*/true), 0u);
  EXPECT_FALSE(parse_size_arg("10 "));
  EXPECT_FALSE(parse_size_arg("ten"));
}

}  // namespace
}  // namespace rfid
