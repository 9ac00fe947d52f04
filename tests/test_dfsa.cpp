// Tests for the DFSA baseline.
#include <gtest/gtest.h>

#include "common/error.hpp"
#include "protocols/dfsa.hpp"
#include "sim/verify.hpp"

namespace rfid::protocols {
namespace {

sim::RunResult run_dfsa(std::size_t n, std::uint64_t seed,
                        Dfsa::Config config = Dfsa::Config()) {
  Xoshiro256ss rng(seed);
  const auto pop = tags::TagPopulation::uniform_random(n, rng);
  sim::SessionConfig session;
  session.seed = seed + 1;
  return Dfsa(config).run(pop, session);
}

TEST(Dfsa, CompleteCollection) {
  Xoshiro256ss rng(1);
  const auto pop = tags::TagPopulation::uniform_random(1500, rng)
                       .with_random_payloads(4, rng);
  sim::SessionConfig session;
  session.info_bits = 4;
  const auto result = Dfsa().run(pop, session);
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_TRUE(verify.ok) << verify.message;
}

TEST(Dfsa, WasteNearClassicAlohaOptimum) {
  // At f = n, useful slots ~ 1/e of the frame: waste ~ 63.2%.
  const auto result = run_dfsa(20000, 2);
  EXPECT_NEAR(result.metrics.waste_fraction(), 0.632, 0.03);
}

TEST(Dfsa, SlowerThanPollingProtocols) {
  // Section I: slot waste is why ALOHA loses to polling when the reader
  // already knows the IDs.
  const auto result = run_dfsa(5000, 3);
  EXPECT_EQ(result.metrics.polls, 5000u);
  EXPECT_GT(result.metrics.slots_wasted, 2500u);
}

TEST(Dfsa, FrameFactorTradesEmptiesForCollisions) {
  const auto tight = run_dfsa(5000, 4, Dfsa::Config{.frame_factor = 0.5});
  const auto loose = run_dfsa(5000, 4, Dfsa::Config{.frame_factor = 2.0});
  EXPECT_EQ(tight.metrics.polls, 5000u);
  EXPECT_EQ(loose.metrics.polls, 5000u);
  EXPECT_GT(loose.channel.empty_slots, tight.channel.empty_slots);
  EXPECT_GT(tight.channel.collision_slots, loose.channel.collision_slots);
}

TEST(Dfsa, UnknownPopulationEstimatorConverges) {
  // Schoute-estimated frames must still read everyone, starting from a
  // frame size far off the true population in both directions.
  for (const std::size_t initial : {8u, 128u, 8192u}) {
    Xoshiro256ss rng(50 + initial);
    const auto pop = tags::TagPopulation::uniform_random(2000, rng);
    sim::SessionConfig config;
    config.seed = 51 + initial;
    const auto result =
        Dfsa(Dfsa::Config{.known_population = false,
                          .initial_frame = initial})
            .run(pop, config);
    EXPECT_EQ(result.metrics.polls, 2000u) << initial;
  }
}

TEST(Dfsa, EstimatorCostsLittleVersusOracle) {
  // With a reasonable initial frame the estimator lands within ~25% of the
  // oracle-sized schedule.
  Xoshiro256ss rng(60);
  const auto pop = tags::TagPopulation::uniform_random(5000, rng);
  sim::SessionConfig config;
  config.seed = 61;
  const auto oracle = Dfsa().run(pop, config);
  const auto estimated =
      Dfsa(Dfsa::Config{.known_population = false, .initial_frame = 1024})
          .run(pop, config);
  EXPECT_LT(estimated.exec_time_s(), oracle.exec_time_s() * 1.3);
}

TEST(Dfsa, CaptureEffectSpeedsUpInventory) {
  // With capture, some collision slots still read a tag, so the same
  // population finishes in less air time; collection stays exact.
  Xoshiro256ss rng(40);
  const auto pop = tags::TagPopulation::uniform_random(4000, rng)
                       .with_random_payloads(4, rng);
  sim::SessionConfig plain;
  plain.seed = 41;
  plain.info_bits = 4;
  sim::SessionConfig capture = plain;
  capture.capture_probability = 0.5;
  const auto slow = Dfsa().run(pop, plain);
  const auto fast = Dfsa().run(pop, capture);
  EXPECT_EQ(fast.metrics.polls, 4000u);
  EXPECT_LT(fast.exec_time_s(), slow.exec_time_s());
  const auto verify = sim::verify_complete_collection(pop, fast);
  EXPECT_TRUE(verify.ok) << verify.message;
}

TEST(Dfsa, FullCaptureReadsOnePerBusySlot) {
  // capture_probability = 1: every busy slot yields exactly one read.
  Xoshiro256ss rng(42);
  const auto pop = tags::TagPopulation::uniform_random(1000, rng);
  sim::SessionConfig config;
  config.seed = 43;
  config.capture_probability = 1.0;
  const auto result = Dfsa().run(pop, config);
  EXPECT_EQ(result.metrics.polls, 1000u);
  // Wasted slots are now only the empties.
  EXPECT_EQ(result.metrics.slots_wasted,
            result.channel.empty_slots);
}

TEST(Dfsa, CaptureAndNoiseTogetherStayExact) {
  // Capture rescues some collisions while noise drops some singletons;
  // the combination must still collect everyone exactly once.
  Xoshiro256ss rng(70);
  const auto pop = tags::TagPopulation::uniform_random(2000, rng)
                       .with_random_payloads(8, rng);
  sim::SessionConfig config;
  config.seed = 71;
  config.info_bits = 8;
  config.capture_probability = 0.3;
  config.fault.link = fault::LinkModel::kBernoulli;
  config.fault.bernoulli_loss = 0.15;
  const auto result = Dfsa().run(pop, config);
  EXPECT_EQ(result.metrics.polls, 2000u);
  EXPECT_GT(result.metrics.corrupted, 0u);
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_TRUE(verify.ok) << verify.message;
}

TEST(Dfsa, RejectsPresenceFilter) {
  Xoshiro256ss rng(5);
  const auto pop = tags::TagPopulation::uniform_random(10, rng);
  std::unordered_set<TagId, TagIdHash> present{pop[0].id()};
  sim::SessionConfig config;
  config.present = &present;
  EXPECT_THROW((void)Dfsa().run(pop, config), ContractViolation);
}

TEST(Dfsa, DeterministicReplay) {
  const auto a = run_dfsa(2000, 6);
  const auto b = run_dfsa(2000, 6);
  EXPECT_EQ(a.metrics.slots_total, b.metrics.slots_total);
  EXPECT_DOUBLE_EQ(a.metrics.time_us, b.metrics.time_us);
}

class DfsaSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DfsaSweep, Complete) {
  const std::size_t n = GetParam();
  EXPECT_EQ(run_dfsa(n, 7 * n + 1).metrics.polls, n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DfsaSweep,
                         ::testing::Values(1, 2, 9, 100, 1000, 5000));

}  // namespace
}  // namespace rfid::protocols
