// CRC-framed segmented broadcast and adaptive degradation tests.
//
// Contracts, in order: the segment frame codec detects every single-bit
// corruption; framed runs under BER account for every tag (collected,
// missing, or loudly undelivered — never a silently wrong payload); a
// saturated channel (BER 1) undelivers the whole population exactly instead
// of hanging; framing with a clean channel changes accounting overhead but
// not the collection itself; ADAPT is byte-equivalent to TPP on a clean
// channel and degrades (with a typed event) on a corrupt one; and the whole
// corruption path replays deterministically, serial or pooled.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "analysis/degradation.hpp"
#include "analysis/ehpp_model.hpp"
#include "common/rng.hpp"
#include "core/polling.hpp"
#include "obs/phase_timer.hpp"
#include "parallel/thread_pool.hpp"
#include "parallel/trial_runner.hpp"
#include "phy/framing.hpp"
#include "sim/report_io.hpp"
#include "sim/verify.hpp"

namespace rfid {
namespace {

using core::ProtocolKind;

tags::TagPopulation make_population(std::size_t n, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  return tags::TagPopulation::uniform_random(n, rng);
}

// --- Segment frame codec ----------------------------------------------------

TEST(SegmentFrame, EncodeDecodeRoundTrip) {
  Xoshiro256ss rng(5);
  for (unsigned payload_bits = 1; payload_bits <= 64; ++payload_bits) {
    phy::SegmentFrame frame;
    frame.seq = static_cast<unsigned>(rng.below(16));
    for (unsigned b = 0; b < payload_bits; ++b)
      frame.payload.push_back((rng() & 1u) != 0);
    const BitVec wire = frame.encode();
    EXPECT_EQ(wire.size(), payload_bits + phy::kSegmentOverheadBits);
    const auto decoded = phy::SegmentFrame::decode(wire);
    ASSERT_TRUE(decoded.has_value()) << "payload_bits " << payload_bits;
    EXPECT_EQ(decoded->seq, frame.seq);
    EXPECT_TRUE(decoded->payload == frame.payload);
  }
}

TEST(SegmentFrame, DetectsEverySingleBitFlip) {
  // CRC-16/CCITT detects all single-bit errors; here that guarantee is
  // exercised on the wire image, header and trailer included.
  Xoshiro256ss rng(6);
  phy::SegmentFrame frame;
  frame.seq = 9;
  for (unsigned b = 0; b < 48; ++b) frame.payload.push_back((rng() & 1u) != 0);
  const BitVec wire = frame.encode();
  for (std::size_t pos = 0; pos < wire.size(); ++pos) {
    BitVec corrupted;
    for (std::size_t i = 0; i < wire.size(); ++i)
      corrupted.push_back(i == pos ? !wire.bit(i) : wire.bit(i));
    EXPECT_FALSE(phy::SegmentFrame::decode(corrupted).has_value())
        << "flip at bit " << pos << " went undetected";
  }
}

TEST(FramingConfig, SegmentArithmetic) {
  phy::FramingConfig framing;
  framing.segment_payload_bits = 32;
  EXPECT_EQ(framing.segment_count(0), 0u);
  EXPECT_EQ(framing.segment_count(1), 1u);
  EXPECT_EQ(framing.segment_count(32), 1u);
  EXPECT_EQ(framing.segment_count(33), 2u);
  EXPECT_EQ(framing.segment_count(128), 4u);
  EXPECT_EQ(framing.overhead_bits(128), 4u * phy::kSegmentOverheadBits);
  EXPECT_EQ(framing.framed_bits(40), 40u + 2u * phy::kSegmentOverheadBits);
}

TEST(FramingConfig, BackoffDoublesUntilCap) {
  phy::FramingConfig framing;
  framing.backoff_base_us = 100.0;
  framing.backoff_cap_us = 3200.0;
  EXPECT_DOUBLE_EQ(framing.backoff_us(1), 100.0);
  EXPECT_DOUBLE_EQ(framing.backoff_us(2), 200.0);
  EXPECT_DOUBLE_EQ(framing.backoff_us(5), 1600.0);
  EXPECT_DOUBLE_EQ(framing.backoff_us(6), 3200.0);
  EXPECT_DOUBLE_EQ(framing.backoff_us(12), 3200.0);
}

// --- End-to-end corruption resilience ---------------------------------------

struct FramingCase final {
  ProtocolKind kind;
};

class FramedSweep : public ::testing::TestWithParam<FramingCase> {};

sim::SessionConfig framed_config(std::uint64_t seed, double ber) {
  sim::SessionConfig config;
  config.seed = seed;
  config.fault.downlink_ber = ber;
  config.framing.enabled = true;
  config.recovery.enabled = true;
  config.recovery.retry_budget = 12;
  return config;
}

TEST_P(FramedSweep, EveryTagDeliveredOrListedUnderBer) {
  // The tentpole acceptance contract: with BER > 0 and framing on, every
  // trial either delivers each tag's data (payload checked against ground
  // truth — no silent mis-delivery) or lists the exact shortfall in
  // undelivered_ids.
  for (const std::uint64_t seed : {7ull, 8ull}) {
    for (const double ber : {0.001, 0.01}) {
      const auto pop = make_population(400, seed);
      const auto result = protocols::make_protocol(GetParam().kind)
                              ->run(pop, framed_config(seed, ber));
      const auto verify = sim::verify_complete_collection(pop, result);
      EXPECT_TRUE(verify.ok)
          << "seed " << seed << " ber " << ber << ": " << verify.message;
      EXPECT_TRUE(result.fault_layer);
      EXPECT_TRUE(result.missing_ids.empty());
      EXPECT_EQ(result.records.size() + result.undelivered_ids.size(),
                pop.size());
    }
  }
}

TEST_P(FramedSweep, ModerateBerIsSurvivedCompletely) {
  // At BER 1e-3 a 12-deep retransmission ladder makes segment loss
  // essentially impossible: the run must deliver everything, and the
  // corruption it did see must be visible in the new counters.
  const auto pop = make_population(500, 11);
  const auto result = protocols::make_protocol(GetParam().kind)
                          ->run(pop, framed_config(11, 1e-3));
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_TRUE(verify.ok) << verify.message;
  EXPECT_EQ(result.records.size(), pop.size());
  EXPECT_TRUE(result.undelivered_ids.empty());
  EXPECT_GT(result.metrics.segments_sent, 0u);
  EXPECT_GT(result.metrics.framing_overhead_bits, 0u);
  if (result.metrics.segments_corrupted > 0) {
    EXPECT_GT(result.metrics.segments_retransmitted, 0u);
    EXPECT_GT(result.metrics.phases.get(obs::Phase::kRecovery), 0.0);
  }
  // The phase split still partitions the clock exactly.
  double phase_sum = 0.0;
  for (std::size_t p = 0; p < obs::kPhaseCount; ++p)
    phase_sum += result.metrics.phases.get(static_cast<obs::Phase>(p));
  EXPECT_NEAR(phase_sum, result.metrics.time_us,
              1e-9 * result.metrics.time_us);
}

TEST_P(FramedSweep, SaturatedChannelUndeliversWholePopulationExactly) {
  // BER 1 corrupts every frame: nothing can ever be delivered. The run must
  // terminate (bounded retransmission + bounded round retries) and report
  // the entire population undelivered — exactly, loudly, no hang.
  const auto pop = make_population(64, 13);
  auto config = framed_config(13, 1.0);
  config.recovery.enabled = false;  // pure framing-layer give-up path
  const auto result =
      protocols::make_protocol(GetParam().kind)->run(pop, config);
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_TRUE(verify.ok) << verify.message;
  EXPECT_TRUE(result.records.empty());
  std::set<TagId> undelivered(result.undelivered_ids.begin(),
                              result.undelivered_ids.end());
  EXPECT_EQ(undelivered.size(), pop.size());
  for (const tags::Tag& tag : pop) EXPECT_TRUE(undelivered.contains(tag.id()));
}

TEST_P(FramedSweep, CleanChannelFramingOnlyAddsOverhead) {
  // With BER 0, framing must not change which tags are read or in which
  // order (it draws nothing from the fault stream); it only adds the
  // per-segment header/CRC bits to the command accounting.
  const auto pop = make_population(300, 17);
  sim::SessionConfig unframed;
  unframed.seed = 17;
  sim::SessionConfig framed = unframed;
  framed.framing.enabled = true;

  const auto protocol = protocols::make_protocol(GetParam().kind);
  const auto plain = protocol->run(pop, unframed);
  const auto wrapped = protocol->run(pop, framed);

  ASSERT_EQ(plain.records.size(), wrapped.records.size());
  for (std::size_t i = 0; i < plain.records.size(); ++i)
    EXPECT_EQ(plain.records[i].id, wrapped.records[i].id) << "record " << i;
  EXPECT_EQ(wrapped.metrics.segments_corrupted, 0u);
  EXPECT_EQ(wrapped.metrics.segments_retransmitted, 0u);
  EXPECT_EQ(wrapped.metrics.framing_overhead_bits,
            wrapped.metrics.segments_sent *
                std::uint64_t{phy::kSegmentOverheadBits});
  EXPECT_EQ(wrapped.metrics.command_bits,
            plain.metrics.command_bits + wrapped.metrics.framing_overhead_bits);
}

TEST_P(FramedSweep, CorruptionPathReplaysByteIdentically) {
  const auto pop = make_population(350, 19);
  const auto config = framed_config(19, 0.02);
  const auto protocol = protocols::make_protocol(GetParam().kind);
  const auto a = protocol->run(pop, config);
  const auto b = protocol->run(pop, config);
  EXPECT_EQ(sim::to_json(a, {true, 2}), sim::to_json(b, {true, 2}));
}

INSTANTIATE_TEST_SUITE_P(
    Protocols, FramedSweep,
    ::testing::Values(FramingCase{ProtocolKind::kHpp},
                      FramingCase{ProtocolKind::kEhpp},
                      FramingCase{ProtocolKind::kTpp},
                      FramingCase{ProtocolKind::kAdaptive}),
    [](const auto& param_info) {
      return std::string(protocols::to_string(param_info.param.kind));
    });

// --- Adaptive degradation ---------------------------------------------------

TEST(Adaptive, MatchesTppExactlyOnCleanChannel) {
  // The degradation monitor is pure arithmetic on observed corruption: with
  // BER 0 it never fires, no extra RNG draw happens, and ADAPT's rounds are
  // the same TPP rounds — identical metrics and identical collection order.
  const auto pop = make_population(700, 23);
  sim::SessionConfig config;
  config.seed = 23;
  const auto tpp =
      protocols::make_protocol(ProtocolKind::kTpp)->run(pop, config);
  const auto adapt =
      protocols::make_protocol(ProtocolKind::kAdaptive)->run(pop, config);

  EXPECT_EQ(adapt.metrics.degradations, 0u);
  EXPECT_EQ(adapt.metrics.polls, tpp.metrics.polls);
  EXPECT_EQ(adapt.metrics.rounds, tpp.metrics.rounds);
  EXPECT_EQ(adapt.metrics.vector_bits, tpp.metrics.vector_bits);
  EXPECT_EQ(adapt.metrics.command_bits, tpp.metrics.command_bits);
  EXPECT_EQ(adapt.metrics.tag_bits, tpp.metrics.tag_bits);
  EXPECT_DOUBLE_EQ(adapt.metrics.time_us, tpp.metrics.time_us);
  ASSERT_EQ(adapt.records.size(), tpp.records.size());
  for (std::size_t i = 0; i < adapt.records.size(); ++i)
    EXPECT_EQ(adapt.records[i].id, tpp.records[i].id) << "record " << i;
}

TEST(Adaptive, DegradesAwayFromTppOnHeavilyCorruptedChannel) {
  // Past BER ~0.06 a 52-bit TPP chunk frame fails so much more often than
  // HPP's shorter per-tag frames that the amortization advantage flips:
  // the cost model must trigger at least one downgrade, recorded in the
  // typed counter — and the run must still account for every tag. (The
  // deeper retransmission ladder keeps the 52-bit round-init deliverable at
  // this BER; the ablation bench sweeps the same regime for air time.)
  const auto pop = make_population(600, 29);
  auto config = framed_config(29, 0.07);
  config.framing.max_retransmissions = 16;
  const auto result =
      protocols::make_protocol(ProtocolKind::kAdaptive)->run(pop, config);
  EXPECT_GE(result.metrics.degradations, 1u);
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_TRUE(verify.ok) << verify.message;
  EXPECT_EQ(result.records.size(), pop.size());
}

TEST(Adaptive, TierCostModelCrossesOver) {
  // Unit-level sanity on the analysis model the session consults: on a
  // clean channel TPP is the cheapest tier; on a badly corrupted one it is
  // not, and select_tier walks down the ladder.
  analysis::ChannelModel clean{0.0, 32, 9};
  analysis::ChannelModel dirty{0.1, 32, 9};
  const std::size_t n = 1000;
  const std::size_t n_star = analysis::ehpp_optimal_subset_size(128.0, 32.0);
  EXPECT_LT(
      analysis::tier_cost_per_tag(analysis::PollingTier::kTpp, n, clean,
                                  n_star),
      analysis::tier_cost_per_tag(analysis::PollingTier::kHpp, n, clean,
                                  n_star));
  EXPECT_GT(
      analysis::tier_cost_per_tag(analysis::PollingTier::kTpp, n, dirty,
                                  n_star),
      analysis::tier_cost_per_tag(analysis::PollingTier::kHpp, n, dirty,
                                  n_star));
  EXPECT_EQ(analysis::select_tier(analysis::PollingTier::kTpp, n, clean,
                                  n_star),
            analysis::PollingTier::kTpp);
  EXPECT_NE(analysis::select_tier(analysis::PollingTier::kTpp, n, dirty,
                                  n_star),
            analysis::PollingTier::kTpp);
  // Downgrade-only ladder: from HPP there is nowhere further down.
  EXPECT_EQ(analysis::select_tier(analysis::PollingTier::kHpp, n, dirty,
                                  n_star),
            analysis::PollingTier::kHpp);
}

// --- Parallel determinism ---------------------------------------------------

TEST(FramingDeterminism, SerialAndPooledTrialsAgreeUnderBer) {
  parallel::TrialPlan plan;
  plan.trials = 10;
  plan.master_seed = 31;
  plan.session.fault.downlink_ber = 0.01;
  plan.session.framing.enabled = true;
  plan.session.recovery.enabled = true;
  plan.session.recovery.retry_budget = 10;
  const auto protocol = protocols::make_protocol(ProtocolKind::kAdaptive);
  const auto factory = parallel::uniform_population(250);

  const auto serial = parallel::run_trials(*protocol, factory, plan, nullptr);
  parallel::ThreadPool pool(4);
  const auto pooled = parallel::run_trials(*protocol, factory, plan, &pool);

  EXPECT_EQ(serial.totals.polls, pooled.totals.polls);
  EXPECT_EQ(serial.totals.downlink_corrupted, pooled.totals.downlink_corrupted);
  EXPECT_EQ(serial.totals.segments_sent, pooled.totals.segments_sent);
  EXPECT_EQ(serial.totals.segments_retransmitted,
            pooled.totals.segments_retransmitted);
  EXPECT_EQ(serial.totals.undelivered, pooled.totals.undelivered);
  EXPECT_EQ(serial.totals.degradations, pooled.totals.degradations);
  EXPECT_DOUBLE_EQ(serial.totals.time_us, pooled.totals.time_us);
  ASSERT_EQ(serial.outcomes.size(), pooled.outcomes.size());
  for (std::size_t i = 0; i < serial.outcomes.size(); ++i)
    EXPECT_DOUBLE_EQ(serial.outcomes[i].exec_time_s,
                     pooled.outcomes[i].exec_time_s);
}

}  // namespace
}  // namespace rfid
