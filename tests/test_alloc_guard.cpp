// Allocation-free steady state, gated in the main suite (ctest label
// `static`). bench/bench_round_engine measures and *reports* the same
// invariant; this test *fails* when it regresses.
//
// The contract (established by the RoundEngine refactor): all round-scoped
// scratch lives in the engine's protocols::RoundScratch and the round
// policies, and one engine instance spans a protocol run, so after the
// first round of a drain — which grows every buffer to its high-water
// capacity — each further round performs ZERO heap allocations. A
// core::Deployment keeps one round policy and one RoundScratch per
// execution shard, which the shard's readers take turns on: the cold first
// rounds of its readers grow one set of buffers, not one per reader or
// per incarnation, and a whole HPP or TPP drain allocates fewer times than
// it has readers. The gate covers the steady-state round shape of the
// polling protocols:
//   HPP    — HppRoundPolicy, init bits outside w;
//   EHPP   — the HPP rounds inside a circle (init bits folded into w; the
//            per-circle setup (circle frame encode, subset split) is
//            paid per circle, not per round, and is gated separately as
//            "bounded by circles, not rounds"; the split itself
//            allocates nothing once the first circle warmed its scratch);
//   TPP    — TppRoundPolicy with the differential tree dispatch;
//   ADAPT  — a whole run against a whole TPP run: the degradation monitor
//            in AdaptivePolling::run adds no allocation (clean, per-poll
//            and framed).
// Record-free clean rounds take the engine's batched fast path for HPP and
// TPP alike, so the TPP and ADAPT shapes are gated twice: once on that
// path and once with a presence filter that holds every ID, which keeps
// each round on the per-poll tree dispatch without adding per-poll output.
// A trace sink also keeps rounds on the per-poll path; HPP and TPP rounds
// traced into an obs::RingBufferSink are gated too.
//
// This TU is the binary's single inclusion of alloc_guard.hpp (it replaces
// global operator new/delete).
#include "alloc_guard.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/deployment.hpp"
#include "fault/recovery.hpp"
#include "fault/supervisor.hpp"
#include "obs/trace.hpp"
#include "protocols/adaptive_polling.hpp"
#include "protocols/enhanced_hash_polling.hpp"
#include "protocols/hash_polling.hpp"
#include "protocols/round_engine.hpp"
#include "protocols/tree_polling.hpp"
#include "sim/checkpoint.hpp"
#include "sim/session.hpp"
#include "tags/population.hpp"

namespace rfid {
namespace {

constexpr std::size_t kPopulation = 512;
constexpr std::uint64_t kSeed = 20260806;

/// Which dispatch the measured rounds take.
enum class Dispatch { kCleanFastPath, kPerPoll, kTraced };

/// Drains `policy` rounds over a fresh population and returns the total
/// allocations in rounds 2..N (the steady state). Dispatch::kPerPoll
/// installs a presence filter holding every ID: nothing is missing, but
/// the session leaves the clean-round fast path. Dispatch::kTraced leaves
/// it by attaching a ring-buffer trace sink.
template <typename Policy, typename PolicyConfig>
std::uint64_t steady_allocs(const PolicyConfig& policy_config,
                            Dispatch dispatch = Dispatch::kCleanFastPath,
                            std::uint64_t seed = kSeed) {
  Xoshiro256ss id_rng(seed);
  const tags::TagPopulation population =
      tags::TagPopulation::uniform_random(kPopulation, id_rng);
  std::unordered_set<TagId, TagIdHash> everyone;
  for (const tags::Tag& tag : population) everyone.insert(tag.id());
  sim::SessionConfig config;
  config.seed = seed ^ 0x9E3779B97F4A7C15ull;
  config.keep_records = false;  // record storage is output data, not scratch
  if (dispatch == Dispatch::kPerPoll) config.present = &everyone;
  obs::RingBufferSink ring(1024);
  if (dispatch == Dispatch::kTraced) config.tracer = &ring;
  sim::Session session(population, config);
  EXPECT_EQ(session.clean_poll_fast_path(),
            dispatch == Dispatch::kCleanFastPath);
  tags::TagSoA active = protocols::make_devices(session);
  fault::RecoveryCoordinator recovery(config.recovery);
  protocols::RoundEngine engine(session, recovery);
  Policy policy(policy_config);

  std::uint64_t rounds = 0;
  std::uint64_t steady = 0;
  while (!active.empty()) {
    const alloc_guard::Probe probe;
    engine.run_round(active, policy);
    if (rounds > 0) steady += probe.delta();
    ++rounds;
  }
  // A drain of 512 tags takes several rounds; if it somehow finished in
  // one, the "steady state" below would be vacuous.
  EXPECT_GE(rounds, 3u);
  EXPECT_EQ(ring.total_events() > 0, dispatch == Dispatch::kTraced);
  return steady;
}

TEST(AllocGuard, ProbeCountsAllocations) {
  const alloc_guard::Probe probe;
  EXPECT_EQ(probe.delta(), 0u);
  {
    std::vector<int> v(1024);
    EXPECT_GE(probe.delta(), 1u);
  }
}

TEST(AllocGuard, HppSteadyStateRoundsAllocationFree) {
  EXPECT_EQ(steady_allocs<protocols::HppRoundPolicy>(
                protocols::HppRoundConfig{}),
            0u);
}

TEST(AllocGuard, EhppInnerRoundsAllocationFree) {
  // The round shape EHPP runs inside every circle (run_ehpp_circle):
  // HPP rounds with the init frame counted into w.
  const protocols::Ehpp::Config ehpp;
  EXPECT_EQ(steady_allocs<protocols::HppRoundPolicy>(protocols::HppRoundConfig{
                ehpp.round_init_bits, /*count_init_in_w=*/true}),
            0u);
}

TEST(AllocGuard, TppSteadyStateRoundsAllocationFree) {
  EXPECT_EQ(steady_allocs<protocols::TppRoundPolicy>(protocols::Tpp::Config{}),
            0u);
}

TEST(AllocGuard, TppPerPollRoundsAllocationFree) {
  EXPECT_EQ(steady_allocs<protocols::TppRoundPolicy>(protocols::Tpp::Config{},
                                                     Dispatch::kPerPoll),
            0u);
}

TEST(AllocGuard, TracedRoundsAllocationFree) {
  EXPECT_EQ(steady_allocs<protocols::HppRoundPolicy>(
                protocols::HppRoundConfig{}, Dispatch::kTraced),
            0u);
  EXPECT_EQ(steady_allocs<protocols::TppRoundPolicy>(protocols::Tpp::Config{},
                                                     Dispatch::kTraced),
            0u);
}

/// Allocations of one whole protocol run, session and result included.
std::uint64_t run_allocs(const protocols::PollingProtocol& protocol,
                         const tags::TagPopulation& population,
                         const sim::SessionConfig& config,
                         sim::Metrics& metrics) {
  const alloc_guard::Probe probe;
  metrics = protocol.run(population, config).metrics;
  return probe.delta();
}

/// Which session an ADAPT-vs-TPP allocation gate runs.
enum class AdaptSetup { kClean, kPerPoll, kFramed };

/// On a channel that never degrades, an ADAPT run is a TPP run plus the
/// degradation monitor in AdaptivePolling::run, so it must allocate
/// exactly as often as TPP on the same population. TPP's rounds after the
/// first allocate nothing (gated above), so neither do ADAPT's.
/// AdaptSetup::kPerPoll installs a presence filter that holds every ID;
/// AdaptSetup::kFramed frames the downlink at BER 0, where its attempts
/// pass the monitor's 16-observation gate in round 1 and it prices the
/// tiers every round.
void expect_adapt_allocates_as_tpp(AdaptSetup setup) {
  Xoshiro256ss id_rng(kSeed + 6);
  const tags::TagPopulation population =
      tags::TagPopulation::uniform_random(kPopulation, id_rng);
  std::unordered_set<TagId, TagIdHash> everyone;
  for (const tags::Tag& tag : population) everyone.insert(tag.id());
  sim::SessionConfig config;
  config.seed = kSeed;
  config.keep_records = false;
  if (setup == AdaptSetup::kPerPoll) config.present = &everyone;
  if (setup == AdaptSetup::kFramed) config.framing.enabled = true;
  EXPECT_EQ(sim::Session(population, config).clean_poll_fast_path(),
            setup == AdaptSetup::kClean);

  sim::Metrics tpp_metrics;
  sim::Metrics adapt_metrics;
  const std::uint64_t tpp =
      run_allocs(protocols::Tpp(), population, config, tpp_metrics);
  const std::uint64_t adapt = run_allocs(protocols::AdaptivePolling(),
                                         population, config, adapt_metrics);
  EXPECT_EQ(adapt, tpp);
  EXPECT_EQ(adapt_metrics.degradations, 0u);
  EXPECT_EQ(adapt_metrics.rounds, tpp_metrics.rounds);
  EXPECT_GE(adapt_metrics.rounds, 3u);
  // Framed, the downlink logs an attempt per segment: the gate opened.
  if (setup == AdaptSetup::kFramed) {
    EXPECT_GT(adapt_metrics.segments_sent, 16u);
  }
}

TEST(AllocGuard, AdaptSteadyStateRoundsAllocationFree) {
  expect_adapt_allocates_as_tpp(AdaptSetup::kClean);
}

TEST(AllocGuard, AdaptPerPollRoundsAllocationFree) {
  expect_adapt_allocates_as_tpp(AdaptSetup::kPerPoll);
}

TEST(AllocGuard, AdaptMonitorAddsNoAllocation) {
  expect_adapt_allocates_as_tpp(AdaptSetup::kFramed);
}

TEST(AllocGuard, RoundsAllocationFreeAcrossSeeds) {
  // A later round can hold more singletons than round 1 (the load factor
  // moves as h steps down), so round scratch sized by a round's singleton
  // count would regrow now and then. One seed rarely shows it; a few
  // hundred drains per protocol and dispatch do.
  for (const Dispatch dispatch :
       {Dispatch::kCleanFastPath, Dispatch::kPerPoll}) {
    std::uint64_t hpp = 0;
    std::uint64_t tpp = 0;
    for (std::uint64_t seed = 1; seed <= 300; ++seed) {
      hpp += steady_allocs<protocols::HppRoundPolicy>(
          protocols::HppRoundConfig{}, dispatch, seed);
      tpp += steady_allocs<protocols::TppRoundPolicy>(protocols::Tpp::Config{},
                                                      dispatch, seed);
    }
    EXPECT_EQ(hpp, 0u) << "per-poll=" << (dispatch == Dispatch::kPerPoll);
    EXPECT_EQ(tpp, 0u) << "per-poll=" << (dispatch == Dispatch::kPerPoll);
  }
}

TEST(AllocGuard, SupervisorFaultFreeTicksAllocationFree) {
  // The supervisor rides the fleet's per-tick hot path: with no faults
  // firing, progress notes and the deadline sweep must allocate nothing
  // (transition storage is reserved at construction).
  fault::ReaderSupervisor supervisor(8, fault::SupervisorConfig{});
  const alloc_guard::Probe probe;
  for (std::uint64_t tick = 0; tick < 1000; ++tick) {
    for (std::size_t r = 0; r < 8; ++r)
      supervisor.note_round_complete(r, tick);
    supervisor.advance(tick);
  }
  EXPECT_EQ(probe.delta(), 0u);
}

TEST(AllocGuard, SupervisorBoundedTransitionsStayWithinReserve) {
  // A bounded burst of health churn (each reader: crash -> restart ->
  // recover) fits the constructor's reserve, so even fault-laden ticks do
  // not grow the log's storage.
  fault::SupervisorConfig config;
  config.backoff_initial_ticks = 1;
  fault::ReaderSupervisor supervisor(4, config);
  for (std::size_t r = 0; r < 4; ++r) supervisor.note_round_complete(r, 0);

  const alloc_guard::Probe probe;
  for (std::size_t r = 0; r < 4; ++r) {
    supervisor.note_crash(r, 1);           // -> kDown
    supervisor.begin_restart(r, 2);        // -> kRecovering
    supervisor.note_round_complete(r, 3);  // -> kHealthy
  }
  supervisor.advance(3);
  EXPECT_EQ(probe.delta(), 0u);
}

TEST(AllocGuard, DeploymentFaultFreeTicksAllocationFree) {
  // The deployment simulator's serial scheduling tick (no faults, no
  // churn, overlap on so ownership resolution ran at placement): once one
  // full channel rotation has run every reader's first round on the
  // shard's round scratch, growing it to the largest of them, each further
  // tick — schedule recompute, round, channel fold, supervisor sweep —
  // must allocate nothing.
  Xoshiro256ss id_rng(kSeed + 2);
  const tags::TagPopulation population =
      tags::TagPopulation::uniform_random(kPopulation, id_rng);
  core::DeploymentConfig config;
  config.readers = 4;
  config.channels = 2;  // rotation of 2: co-channel readers alternate
  config.session.seed = kSeed;
  config.session.keep_records = false;
  config.zone_overlap = 0.2;
  core::Deployment deployment(population, config);

  const std::uint64_t rotation = 2;
  std::uint64_t warmup = 2 * rotation;  // every reader: one cold round
  while (warmup > 0 && deployment.tick()) --warmup;
  ASSERT_EQ(warmup, 0u) << "population drained before the warm-up ended";

  std::uint64_t steady_ticks = 0;
  std::uint64_t steady = 0;
  for (;;) {
    const alloc_guard::Probe probe;
    const bool more = deployment.tick();
    steady += probe.delta();
    ++steady_ticks;
    if (!more) break;
  }
  EXPECT_GE(steady_ticks, 3u);  // the gate must have measured something
  EXPECT_EQ(steady, 0u);
  EXPECT_TRUE(deployment.finish().verified);
}

TEST(AllocGuard, DeploymentDrainAllocatesFewerTimesThanReaders) {
  // The cold rounds the gate above warms up past. A serial drain keeps one
  // round policy and one round scratch for its one shard, so a reader's
  // first round grows a buffer only when it needs more room than every
  // earlier reader's did. Across the whole tick loop a drain must
  // therefore allocate fewer times than it has readers — for HPP and TPP,
  // on the clean fast path and on the per-poll path (a presence filter
  // that holds every ID). A buffer per reader would cost an allocation in
  // every reader's first round.
  constexpr std::size_t kReaders = 64;
  Xoshiro256ss id_rng(kSeed + 5);
  const tags::TagPopulation population =
      tags::TagPopulation::uniform_random(20000, id_rng);
  std::unordered_set<TagId, TagIdHash> everyone;
  for (const tags::Tag& tag : population) everyone.insert(tag.id());
  for (const protocols::ProtocolKind kind :
       {protocols::ProtocolKind::kHpp, protocols::ProtocolKind::kTpp}) {
    for (const Dispatch dispatch :
         {Dispatch::kCleanFastPath, Dispatch::kPerPoll}) {
      core::DeploymentConfig config;
      config.readers = kReaders;
      config.channels = 8;
      config.kind = kind;
      config.session.seed = kSeed;
      config.session.keep_records = false;
      if (dispatch == Dispatch::kPerPoll) config.session.present = &everyone;
      core::Deployment deployment(population, config);
      ASSERT_EQ(deployment.shard_count(), 1u);
      const std::string label =
          std::string(protocols::to_string(kind)) +
          (dispatch == Dispatch::kPerPoll ? " per-poll" : " clean");

      std::uint64_t ticks = 0;
      const alloc_guard::Probe probe;
      while (deployment.tick()) ++ticks;
      const std::uint64_t allocs = probe.delta();
      // Eight ticks give each of the 64 readers on 8 channels its first
      // round.
      EXPECT_GE(ticks, kReaders / 8) << label;
      EXPECT_LT(allocs, kReaders) << label;
      EXPECT_TRUE(deployment.finish().verified) << label;
    }
  }
}

TEST(AllocGuard, ChurnDrainAllocatesAFewTimesPerReader) {
  // A churning serial drain: every scheduled reader scans its horizons
  // before its round. The scan's scratch lives per shard and is sized at
  // placement, so what the tick loop allocates is growth: each reader's
  // move and departure lists, the columns of readers that take handoffs
  // and the report's ID lists. That is a small multiple of the reader
  // count, and it must not grow with the number of scans: the second half
  // of the drain, with as many scans as the first, allocates far less.
  constexpr std::size_t kReaders = 64;
  constexpr std::size_t kChannels = 8;
  Xoshiro256ss id_rng(kSeed + 8);
  const tags::TagPopulation population =
      tags::TagPopulation::uniform_random(20000, id_rng);
  core::DeploymentConfig config;
  config.readers = kReaders;
  config.channels = kChannels;
  config.session.seed = kSeed;
  config.session.keep_records = false;
  config.zone_overlap = 0.2;
  config.churn_move_per_tick = 0.0016;
  config.churn_depart_per_tick = 0.0004;
  core::Deployment deployment(population, config);
  ASSERT_EQ(deployment.shard_count(), 1u);

  std::vector<std::uint64_t> per_tick;
  for (;;) {
    const alloc_guard::Probe probe;
    const bool more = deployment.tick();
    per_tick.push_back(probe.delta());
    if (!more) break;
  }
  const std::size_t half = per_tick.size() / 2;
  std::uint64_t first = 0;
  std::uint64_t second = 0;
  for (std::size_t t = 0; t < per_tick.size(); ++t)
    (t < half ? first : second) += per_tick[t];
  // Every tick schedules one reader per channel. The bound is the
  // parent tree's count, 371 (5.8 per reader), rounded up; the per-reader
  // leave flags that tree grew at each reader's first scan are gone.
  const std::uint64_t scans_per_half = half * kChannels;
  EXPECT_GE(scans_per_half, 8 * kReaders);  // the gate measured something
  EXPECT_LE(first + second, 6 * kReaders)
      << "first half " << first << ", second half " << second << " over "
      << per_tick.size() << " ticks";
  EXPECT_LE(second * 8, first)
      << "first half " << first << ", second half " << second;
  EXPECT_TRUE(deployment.finish().verified);
}

TEST(AllocGuard, DeploymentConstructionSizesSharesOnce) {
  // Placement counts each reader's share before it fills any, so a serial
  // construction sizes every reader's four TagSoA columns once. Beyond
  // what a construction over an empty population allocates, it may
  // allocate at most four times per reader. Growing the columns tag by
  // tag costs about ten reallocations per column at 300 tags per reader.
  constexpr std::size_t kReaders = 64;
  Xoshiro256ss id_rng(kSeed + 6);
  const tags::TagPopulation population =
      tags::TagPopulation::uniform_random(20000, id_rng);
  const tags::TagPopulation nobody;
  core::DeploymentConfig config;
  config.readers = kReaders;
  config.channels = 8;
  config.session.seed = kSeed;
  config.session.keep_records = false;  // records reserve per population
  const auto construction_allocs = [&config](const tags::TagPopulation& pop) {
    const alloc_guard::Probe probe;
    const core::Deployment deployment(pop, config);
    EXPECT_EQ(deployment.active_remaining(), pop.size());
    return probe.delta();
  };
  const std::uint64_t empty = construction_allocs(nobody);
  const std::uint64_t full = construction_allocs(population);
  EXPECT_LE(full, empty + 4 * kReaders)
      << "empty population: " << empty << ", 20000 tags: " << full;
}

TEST(AllocGuard, ChurnDeploymentConstructionSizesSharesOnce) {
  // With churn on, each reader's TagSoA carries a fifth column, its
  // tags' churn horizons, and the constructor sizes the handoff ledger and
  // each shard's churn-scan scratch. Beyond an empty construction, that
  // allows five allocations per reader, one for the ledger and one per
  // shard. A horizon column grown tag by tag, or a floor pass that stages
  // its hashes on the heap, costs more.
  constexpr std::size_t kReaders = 64;
  Xoshiro256ss id_rng(kSeed + 7);
  const tags::TagPopulation population =
      tags::TagPopulation::uniform_random(20000, id_rng);
  const tags::TagPopulation nobody;
  core::DeploymentConfig config;
  config.readers = kReaders;
  config.channels = 8;
  config.session.seed = kSeed;
  config.session.keep_records = false;
  config.zone_overlap = 0.2;
  config.churn_move_per_tick = 0.0016;
  config.churn_depart_per_tick = 0.0004;
  const auto construction_allocs = [&config](const tags::TagPopulation& pop) {
    const alloc_guard::Probe probe;
    const core::Deployment deployment(pop, config);
    EXPECT_EQ(deployment.active_remaining(), pop.size());
    EXPECT_EQ(deployment.shard_count(), 1u);
    return probe.delta();
  };
  const std::uint64_t empty = construction_allocs(nobody);
  const std::uint64_t full = construction_allocs(population);
  EXPECT_LE(full, empty + 5 * kReaders + 1 + 1)
      << "empty population: " << empty << ", 20000 tags: " << full;
}

TEST(AllocGuard, CheckpointEncodeIntoWarmBufferAllocationFree) {
  // simserved snapshots on every epoch boundary; once the byte buffer has
  // grown to its high-water size, re-encoding must allocate nothing.
  sim::Checkpoint checkpoint;
  checkpoint.master_seed = 7;
  checkpoint.readers.resize(8);
  for (std::size_t r = 0; r < checkpoint.readers.size(); ++r) {
    checkpoint.readers[r].epochs = r;
    checkpoint.readers[r].completed.rounds = 100 + r;
  }

  std::vector<std::uint8_t> buffer;
  sim::encode_into(checkpoint, buffer);  // cold: grows the buffer
  const alloc_guard::Probe probe;
  for (int i = 0; i < 100; ++i) sim::encode_into(checkpoint, buffer);
  EXPECT_EQ(probe.delta(), 0u);
}

TEST(AllocGuard, EhppCircleSplitAllocationFree) {
  // The membership split alone, circle after circle: once the first
  // circle has warmed the engine's subset scratch, each further split —
  // hashing, in-place compaction and the member append — allocates
  // nothing. Each subset is dropped as if its rounds had read it.
  Xoshiro256ss id_rng(kSeed + 3);
  const tags::TagPopulation population =
      tags::TagPopulation::uniform_random(8 * kPopulation, id_rng);
  sim::SessionConfig config;
  config.seed = kSeed;
  config.keep_records = false;
  sim::Session session(population, config);
  tags::TagSoA active = protocols::make_devices(session);
  fault::RecoveryCoordinator recovery(config.recovery);
  protocols::RoundEngine engine(session, recovery);
  const protocols::Ehpp::Config ehpp;
  const std::size_t subset_target =
      protocols::Ehpp(ehpp).effective_subset_size();
  ASSERT_TRUE(protocols::run_ehpp_circle(session, engine, active, ehpp,
                                         subset_target));

  Xoshiro256ss seed_rng(kSeed + 4);
  std::uint64_t splits = 0;
  std::uint64_t allocs = 0;
  while (active.size() > subset_target) {
    tags::TagSoA& subset = engine.subset_scratch();
    subset.clear();
    const std::uint64_t threshold =
        ehpp.selection_modulus * subset_target / active.size();
    const alloc_guard::Probe probe;
    active.split_circle(seed_rng(), ehpp.selection_modulus, threshold, subset,
                        engine.hash_backend());
    allocs += probe.delta();
    ++splits;
  }
  EXPECT_GE(splits, 10u);  // the gate must have measured something
  EXPECT_EQ(allocs, 0u);
}

TEST(AllocGuard, EhppCircleSetupBoundedByCircles) {
  // Per-circle setup (circle frame encode + subset split) may allocate,
  // but the cost must stay per *circle*, not per round: a full EHPP drain
  // allocates O(circles) times, far below one allocation per round.
  Xoshiro256ss id_rng(kSeed + 1);
  const tags::TagPopulation population =
      tags::TagPopulation::uniform_random(kPopulation, id_rng);
  sim::SessionConfig config;
  config.seed = kSeed;
  config.keep_records = false;
  sim::Session session(population, config);
  tags::TagSoA active = protocols::make_devices(session);
  fault::RecoveryCoordinator recovery(config.recovery);
  protocols::RoundEngine engine(session, recovery);
  const protocols::Ehpp ehpp_protocol;
  const std::size_t subset_target = ehpp_protocol.effective_subset_size();

  std::uint64_t circles = 0;
  std::uint64_t steady = 0;
  const protocols::Ehpp::Config ehpp_config;
  while (!active.empty()) {
    const alloc_guard::Probe probe;
    ASSERT_TRUE(protocols::run_ehpp_circle(session, engine, active,
                                           ehpp_config, subset_target));
    if (circles > 0) steady += probe.delta();
    ++circles;
  }
  EXPECT_GE(circles, 2u);
  // Generous per-circle budget: frame encode, subset vector, engine growth
  // for a subset larger than any predecessor. What it must never be is
  // per-poll or per-round-scratch reallocation (hundreds per circle).
  EXPECT_LE(steady, circles * 32);
}

}  // namespace
}  // namespace rfid
