// Channel-noise (failure-injection) tests: under i.i.d. reply loss
// (fault::LinkModel::kBernoulli) every protocol must still deliver a
// complete, correct collection — under C1G2 an unacknowledged tag stays
// awake, so garbled replies simply feed back into later rounds (or
// immediate retries for the conventional family).
#include <gtest/gtest.h>

#include <cstdint>

#include "core/polling.hpp"

namespace rfid {
namespace {

using core::ProtocolKind;

// gtest prints a parameter that has no operator<< as its raw bytes, and the
// ctest name of each case carries that print. `pad` fills the alignment gap
// after `kind` with zeros, so no case name shows uninitialised memory.
// (has_unique_object_representations is false for any struct holding a
// double, so the no-padding guard is a size check.)
struct NoiseCase final {
  ProtocolKind kind;
  std::uint32_t pad = 0;
  double error_rate;
};
static_assert(sizeof(NoiseCase) ==
              sizeof(ProtocolKind) + sizeof(std::uint32_t) + sizeof(double));

NoiseCase noise_case(ProtocolKind kind, double error_rate) {
  return NoiseCase{.kind = kind, .error_rate = error_rate};
}

/// Garbles each reply with probability `loss` on the fault stream.
void set_reply_loss(sim::SessionConfig& config, double loss) {
  config.fault.link = fault::LinkModel::kBernoulli;
  config.fault.bernoulli_loss = loss;
}

class NoiseSweep : public ::testing::TestWithParam<NoiseCase> {};

TEST_P(NoiseSweep, CompleteAndCorrectUnderNoise) {
  const ProtocolKind kind = GetParam().kind;
  const double rate = GetParam().error_rate;
  Xoshiro256ss rng(99);
  const auto pop = tags::TagPopulation::uniform_random(800, rng)
                       .with_random_payloads(8, rng);
  sim::SessionConfig config;
  config.info_bits = 8;
  config.seed = 5;
  set_reply_loss(config, rate);
  const auto report = core::collect_info(kind, pop, config);
  EXPECT_TRUE(report.verification.ok)
      << report.result.protocol << ": " << report.verification.message;
  EXPECT_EQ(report.result.metrics.polls, 800u);
  EXPECT_GT(report.result.metrics.corrupted, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, NoiseSweep,
    ::testing::Values(noise_case(ProtocolKind::kCpp, 0.1),
                      noise_case(ProtocolKind::kPrefixCpp, 0.1),
                      noise_case(ProtocolKind::kCodedPolling, 0.1),
                      noise_case(ProtocolKind::kHpp, 0.1),
                      noise_case(ProtocolKind::kHpp, 0.3),
                      noise_case(ProtocolKind::kEhpp, 0.2),
                      noise_case(ProtocolKind::kTpp, 0.1),
                      noise_case(ProtocolKind::kTpp, 0.3),
                      noise_case(ProtocolKind::kMic, 0.2),
                      noise_case(ProtocolKind::kSic, 0.2),
                      noise_case(ProtocolKind::kDfsa, 0.2)),
    [](const auto& param_info) {
      return std::string(protocols::to_string(param_info.param.kind)) + "_p" +
             std::to_string(int(param_info.param.error_rate * 100));
    });

TEST(Noise, CorruptionRateMatchesConfiguredProbability) {
  Xoshiro256ss rng(1);
  const auto pop = tags::TagPopulation::uniform_random(5000, rng);
  sim::SessionConfig config;
  config.seed = 2;
  set_reply_loss(config, 0.2);
  const auto result =
      protocols::make_protocol(ProtocolKind::kTpp)->run(pop, config);
  // Each successful poll is preceded by Geometric(0.2) failures: expected
  // corrupted ~= polls * p/(1-p) = 1250.
  const double expected = 5000.0 * 0.2 / 0.8;
  EXPECT_NEAR(double(result.metrics.corrupted), expected, expected * 0.15);
}

TEST(Noise, NoiseCostsTime) {
  Xoshiro256ss rng(3);
  const auto pop = tags::TagPopulation::uniform_random(2000, rng);
  sim::SessionConfig clean;
  clean.seed = 4;
  sim::SessionConfig noisy = clean;
  set_reply_loss(noisy, 0.25);
  const auto protocol = protocols::make_protocol(ProtocolKind::kTpp);
  const auto fast = protocol->run(pop, clean);
  const auto slow = protocol->run(pop, noisy);
  EXPECT_GT(slow.exec_time_s(), fast.exec_time_s() * 1.15);
}

TEST(Noise, ZeroRateIsNoiseless) {
  Xoshiro256ss rng(5);
  const auto pop = tags::TagPopulation::uniform_random(500, rng);
  sim::SessionConfig config;
  config.seed = 6;
  const auto result =
      protocols::make_protocol(ProtocolKind::kHpp)->run(pop, config);
  EXPECT_EQ(result.metrics.corrupted, 0u);
}

TEST(Noise, DeterministicUnderSeed) {
  Xoshiro256ss rng(7);
  const auto pop = tags::TagPopulation::uniform_random(700, rng);
  sim::SessionConfig config;
  config.seed = 8;
  set_reply_loss(config, 0.15);
  const auto protocol = protocols::make_protocol(ProtocolKind::kEhpp);
  const auto a = protocol->run(pop, config);
  const auto b = protocol->run(pop, config);
  EXPECT_EQ(a.metrics.corrupted, b.metrics.corrupted);
  EXPECT_DOUBLE_EQ(a.metrics.time_us, b.metrics.time_us);
}

TEST(Noise, CombinesWithMissingTags) {
  // Noise and absence together: missing detection must stay exact.
  Xoshiro256ss rng(9);
  const auto pop = tags::TagPopulation::uniform_random(600, rng);
  std::unordered_set<TagId, TagIdHash> present;
  for (std::size_t i = 0; i < pop.size(); ++i)
    if (i % 20 != 0) present.insert(pop[i].id());
  sim::SessionConfig config;
  config.seed = 10;
  set_reply_loss(config, 0.2);
  const auto report =
      core::find_missing_tags(ProtocolKind::kTpp, pop, present, config);
  EXPECT_TRUE(report.exact);
  EXPECT_EQ(report.missing.size(), 30u);
}

TEST(Noise, TppStillBeatsCppUnderHeavyNoise) {
  // The ranking of the paper is noise-robust: short vectors win even when
  // one reply in four is lost.
  Xoshiro256ss rng(11);
  const auto pop = tags::TagPopulation::uniform_random(2000, rng);
  sim::SessionConfig config;
  config.seed = 12;
  set_reply_loss(config, 0.25);
  const auto tpp =
      protocols::make_protocol(ProtocolKind::kTpp)->run(pop, config);
  const auto cpp =
      protocols::make_protocol(ProtocolKind::kCpp)->run(pop, config);
  EXPECT_LT(tpp.exec_time_s() * 3, cpp.exec_time_s());
}

}  // namespace
}  // namespace rfid
