// Tests for the missing-tag detection/identification protocols and the
// energy model.
#include <gtest/gtest.h>

#include "analysis/energy_model.hpp"
#include "protocols/presence.hpp"
#include "protocols/tree_polling.hpp"

namespace rfid::protocols {
namespace {

struct Scenario final {
  tags::TagPopulation expected;
  std::unordered_set<TagId, TagIdHash> present;
  std::vector<TagId> truly_missing;
};

Scenario make_scenario(std::size_t n, std::size_t missing_every,
                       std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  Scenario scenario;
  scenario.expected = tags::TagPopulation::uniform_random(n, rng);
  for (std::size_t i = 0; i < n; ++i) {
    if (missing_every != 0 && i % missing_every == 0)
      scenario.truly_missing.push_back(scenario.expected[i].id());
    else
      scenario.present.insert(scenario.expected[i].id());
  }
  std::sort(scenario.truly_missing.begin(), scenario.truly_missing.end());
  return scenario;
}

TEST(TrustedReaderDetection, PlannedFramesGrowWithConfidence) {
  TrustedReaderDetection loose(
      TrustedReaderDetection::Config{.confidence = 0.9});
  TrustedReaderDetection tight(
      TrustedReaderDetection::Config{.confidence = 0.999});
  EXPECT_LT(loose.planned_frames(), tight.planned_frames());
}

TEST(TrustedReaderDetection, NoFalsePositiveWhenAllPresent) {
  auto scenario = make_scenario(1000, 0, 1);
  sim::SessionConfig config;
  config.seed = 2;
  config.present = &scenario.present;
  const auto report =
      TrustedReaderDetection().detect(scenario.expected, config);
  EXPECT_FALSE(report.missing_detected);
  EXPECT_EQ(report.frames_run, TrustedReaderDetection().planned_frames());
}

TEST(TrustedReaderDetection, DetectsSingleMissingTag) {
  // One missing tag out of 1000 at 99% confidence: run several independent
  // scenarios; nearly all must detect.
  std::size_t detected = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    auto scenario = make_scenario(1000, 1000, 10 + seed);
    ASSERT_EQ(scenario.truly_missing.size(), 1u);
    sim::SessionConfig config;
    config.seed = seed;
    config.present = &scenario.present;
    detected +=
        TrustedReaderDetection().detect(scenario.expected, config)
            .missing_detected;
  }
  EXPECT_GE(detected, 9u);
}

TEST(TrustedReaderDetection, ManyMissingDetectedFast) {
  auto scenario = make_scenario(1000, 10, 3);
  sim::SessionConfig config;
  config.seed = 4;
  config.present = &scenario.present;
  const auto report =
      TrustedReaderDetection().detect(scenario.expected, config);
  EXPECT_TRUE(report.missing_detected);
  EXPECT_LE(report.frames_run, 2u);
}

TEST(TrustedReaderDetection, DetectionIsCheaperThanIdentification) {
  // The point of TRP: a yes/no answer costs far less air time than a full
  // missing-set identification.
  auto scenario = make_scenario(2000, 40, 5);
  sim::SessionConfig config;
  config.seed = 6;
  config.present = &scenario.present;
  const auto trp = TrustedReaderDetection().detect(scenario.expected, config);
  const auto bitmap =
      BitmapMissingIdentification().identify(scenario.expected, config);
  EXPECT_TRUE(trp.missing_detected);
  EXPECT_LT(trp.result.exec_time_s(), bitmap.result.exec_time_s());
}

TEST(TrustedReaderDetection, EmptyPopulation) {
  const tags::TagPopulation empty;
  const auto report = TrustedReaderDetection().detect(empty, {});
  EXPECT_FALSE(report.missing_detected);
  EXPECT_EQ(report.frames_run, 0u);
}

TEST(BitmapIdentification, FindsExactMissingSet) {
  for (const std::size_t every : {3u, 17u, 100u}) {
    auto scenario = make_scenario(1500, every, 20 + every);
    sim::SessionConfig config;
    config.seed = every;
    config.present = &scenario.present;
    const auto report =
        BitmapMissingIdentification().identify(scenario.expected, config);
    EXPECT_EQ(report.missing, scenario.truly_missing) << every;
    EXPECT_EQ(report.verified.size() + report.missing.size(), 1500u);
  }
}

TEST(BitmapIdentification, AllPresentVerifiesEveryone) {
  auto scenario = make_scenario(800, 0, 7);
  sim::SessionConfig config;
  config.seed = 8;
  config.present = &scenario.present;
  const auto report =
      BitmapMissingIdentification().identify(scenario.expected, config);
  EXPECT_TRUE(report.missing.empty());
  EXPECT_EQ(report.verified.size(), 800u);
}

TEST(BitmapIdentification, PollingBeatsBitmapIdentification) {
  // Both identify the same missing set, but the bitmap scheme clocks
  // through every empty and collision slot of its ALOHA frames — exactly
  // the waste the paper's Section I argues polling eliminates — so TPP
  // finishes the identical task faster (and collects payloads on top).
  auto scenario = make_scenario(3000, 50, 9);
  sim::SessionConfig config;
  config.seed = 10;
  config.present = &scenario.present;
  const auto bitmap =
      BitmapMissingIdentification().identify(scenario.expected, config);
  const auto tpp = Tpp().run(scenario.expected, config);
  std::vector<TagId> tpp_missing = tpp.missing_ids;
  std::sort(tpp_missing.begin(), tpp_missing.end());
  EXPECT_EQ(bitmap.missing, tpp_missing);
  EXPECT_GT(bitmap.result.exec_time_s(), tpp.exec_time_s());
  EXPECT_LT(bitmap.result.exec_time_s(), tpp.exec_time_s() * 3.0);
}

TEST(BitmapIdentification, DeterministicReplay) {
  auto scenario = make_scenario(500, 9, 11);
  sim::SessionConfig config;
  config.seed = 12;
  config.present = &scenario.present;
  const auto a =
      BitmapMissingIdentification().identify(scenario.expected, config);
  const auto b =
      BitmapMissingIdentification().identify(scenario.expected, config);
  EXPECT_EQ(a.missing, b.missing);
  EXPECT_DOUBLE_EQ(a.result.metrics.time_us, b.result.metrics.time_us);
}

TEST(PollingAssisted, FindsExactMissingSet) {
  for (const std::size_t every : {4u, 25u}) {
    auto scenario = make_scenario(1200, every, 40 + every);
    sim::SessionConfig config;
    config.seed = every + 1;
    config.present = &scenario.present;
    const auto report =
        PollingAssistedIdentification().identify(scenario.expected, config);
    EXPECT_EQ(report.missing, scenario.truly_missing) << every;
  }
}

TEST(PollingAssisted, SingleFrameOnly) {
  // The assist replaces follow-up frames with direct polls: exactly one
  // bitmap round regardless of collisions.
  auto scenario = make_scenario(2000, 0, 50);
  sim::SessionConfig config;
  config.seed = 51;
  config.present = &scenario.present;
  const auto report =
      PollingAssistedIdentification().identify(scenario.expected, config);
  EXPECT_EQ(report.result.metrics.rounds, 1u);
  EXPECT_TRUE(report.missing.empty());
}

TEST(PollingAssisted, SlowerThanShortVectorPolling) {
  // The related-work critique: the assist polls with tedious 96-bit IDs,
  // so TPP still wins the same task.
  auto scenario = make_scenario(2000, 40, 52);
  sim::SessionConfig config;
  config.seed = 53;
  config.present = &scenario.present;
  const auto assisted =
      PollingAssistedIdentification().identify(scenario.expected, config);
  const auto tpp = Tpp().run(scenario.expected, config);
  EXPECT_GT(assisted.result.exec_time_s(), tpp.exec_time_s());
}

TEST(PollingAssisted, WorksUnderNoise) {
  auto scenario = make_scenario(800, 10, 54);
  sim::SessionConfig config;
  config.seed = 55;
  config.present = &scenario.present;
  config.fault.link = fault::LinkModel::kBernoulli;
  config.fault.bernoulli_loss = 0.2;
  const auto report =
      PollingAssistedIdentification().identify(scenario.expected, config);
  EXPECT_EQ(report.missing, scenario.truly_missing);
}

TEST(EnergyModel, ZeroTagsZeroEnergy) {
  const auto report = analysis::estimate_energy({}, 0);
  EXPECT_DOUBLE_EQ(report.reader_mj, 0.0);
  EXPECT_DOUBLE_EQ(report.tag_total_uj(), 0.0);
}

TEST(EnergyModel, ScalesWithReaderBits) {
  sim::Metrics small, big;
  small.vector_bits = 1000;
  big.vector_bits = 10000;
  const auto e_small = analysis::estimate_energy(small, 100);
  const auto e_big = analysis::estimate_energy(big, 100);
  EXPECT_NEAR(e_big.reader_mj / e_small.reader_mj, 10.0, 1e-9);
  EXPECT_NEAR(e_big.tag_listen_uj / e_small.tag_listen_uj, 10.0, 1e-9);
}

TEST(EnergyModel, ShortVectorsSaveTagListenEnergy) {
  // The CP/TPP energy argument: fewer reader bits means less tag listening.
  Xoshiro256ss rng(13);
  const auto pop = tags::TagPopulation::uniform_random(2000, rng);
  sim::SessionConfig config;
  config.seed = 14;
  const auto tpp = Tpp().run(pop, config);
  sim::Metrics cpp_metrics;  // CPP: 96 bits per poll, no commands
  cpp_metrics.vector_bits = 96 * 2000;
  cpp_metrics.tag_bits = 2000;
  cpp_metrics.slots_total = 2000;
  const auto e_tpp = analysis::estimate_energy(tpp.metrics, 2000);
  const auto e_cpp = analysis::estimate_energy(cpp_metrics, 2000);
  EXPECT_LT(e_tpp.tag_listen_uj * 5, e_cpp.tag_listen_uj);
}

}  // namespace
}  // namespace rfid::protocols
