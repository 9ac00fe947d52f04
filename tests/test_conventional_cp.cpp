// Tests for the conventional baselines: CPP, Prefix-CPP and Coded Polling.
#include <gtest/gtest.h>

#include "protocols/coded_polling.hpp"
#include "protocols/conventional.hpp"
#include "sim/verify.hpp"

namespace rfid::protocols {
namespace {

tags::TagPopulation uniform(std::size_t n, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  return tags::TagPopulation::uniform_random(n, rng);
}

TEST(Cpp, VectorIsAlwaysNinetySix) {
  const auto result = Cpp().run(uniform(500, 1), sim::SessionConfig{});
  EXPECT_DOUBLE_EQ(result.avg_vector_bits(), 96.0);
  EXPECT_EQ(result.metrics.polls, 500u);
}

TEST(Cpp, TimeMatchesClosedForm) {
  // n * (37.45 * 96 + T1 + 25 l + T2); Table I row at any n.
  sim::SessionConfig config;
  config.info_bits = 1;
  const auto result = Cpp().run(uniform(1000, 2), config);
  EXPECT_NEAR(result.exec_time_s(), 1000 * (37.45 * 96 + 175) * 1e-6, 1e-9);
}

TEST(Cpp, NoRoundsNoWaste) {
  const auto result = Cpp().run(uniform(100, 3), sim::SessionConfig{});
  EXPECT_EQ(result.metrics.rounds, 0u);
  EXPECT_EQ(result.metrics.slots_wasted, 0u);
  EXPECT_EQ(result.metrics.command_bits, 0u);
}

TEST(Cpp, CompleteCollection) {
  Xoshiro256ss rng(4);
  const auto pop = uniform(300, 4).with_random_payloads(32, rng);
  sim::SessionConfig config;
  config.info_bits = 32;
  const auto result = Cpp().run(pop, config);
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_TRUE(verify.ok) << verify.message;
}

TEST(PrefixCpp, SuffixVectorOnClusteredIds) {
  // One shared 32-bit category: every poll carries only 64 suffix bits.
  Xoshiro256ss rng(5);
  const auto pop = tags::TagPopulation::prefix_clustered(200, 1, 32, rng);
  const auto result = PrefixCpp().run(pop, sim::SessionConfig{});
  EXPECT_DOUBLE_EQ(result.avg_vector_bits(), 64.0);
  EXPECT_EQ(result.metrics.polls, 200u);
  // Exactly one Select command: 16-bit frame header + mask bits.
  EXPECT_EQ(result.metrics.command_bits, 16u + 32u);
}

TEST(PrefixCpp, MultipleCategoriesMultipleSelects) {
  Xoshiro256ss rng(6);
  const auto pop = tags::TagPopulation::prefix_clustered(400, 8, 32, rng);
  const auto result = PrefixCpp().run(pop, sim::SessionConfig{});
  EXPECT_EQ(result.metrics.command_bits, 8u * 48u);
  EXPECT_EQ(result.metrics.polls, 400u);
}

TEST(PrefixCpp, RandomIdsDegradeTowardCpp) {
  // With random IDs nearly every tag is its own "category": the Select
  // overhead makes PrefixCpp pay more reader bits than CPP overall even
  // though each polling vector is shorter (Section II-B's point that the
  // trick relies on the ID distribution).
  const auto pop = uniform(300, 7);
  const auto prefix = PrefixCpp().run(pop, sim::SessionConfig{});
  const auto plain = Cpp().run(pop, sim::SessionConfig{});
  const auto total_reader_bits = [](const sim::RunResult& r) {
    return r.metrics.vector_bits + r.metrics.command_bits;
  };
  EXPECT_GT(total_reader_bits(prefix), total_reader_bits(plain));
}

TEST(PrefixCpp, BeatsCppOnClusteredInventory) {
  Xoshiro256ss rng(8);
  const auto pop = tags::TagPopulation::prefix_clustered(1000, 4, 32, rng);
  const auto prefix = PrefixCpp().run(pop, sim::SessionConfig{});
  const auto plain = Cpp().run(pop, sim::SessionConfig{});
  EXPECT_LT(prefix.exec_time_s(), plain.exec_time_s());
}

TEST(PrefixCpp, CompleteCollection) {
  Xoshiro256ss rng(9);
  const auto pop = tags::TagPopulation::prefix_clustered(500, 5, 48, rng);
  const auto result = PrefixCpp(PrefixCpp::Config{.prefix_bits = 48})
                          .run(pop, sim::SessionConfig{});
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_TRUE(verify.ok) << verify.message;
}

TEST(CodedPolling, HalvesThePollingVector) {
  // The cited CP property: 48 bits per tag for an even population.
  const auto result = CodedPolling().run(uniform(1000, 10),
                                         sim::SessionConfig{});
  EXPECT_NEAR(result.avg_vector_bits(), 48.0, 0.5);
  EXPECT_EQ(result.metrics.polls, 1000u);
}

TEST(CodedPolling, OddPopulationLastTagConventional) {
  const auto result = CodedPolling().run(uniform(11, 11),
                                         sim::SessionConfig{});
  EXPECT_EQ(result.metrics.polls, 11u);
  // 5 coded pairs (96 bits each) + 1 bare 96-bit poll.
  EXPECT_EQ(result.metrics.vector_bits, 5u * 96u + 96u);
}

TEST(CodedPolling, ValidatorFieldsAreFramingOverhead) {
  const auto result = CodedPolling().run(uniform(100, 12),
                                         sim::SessionConfig{});
  // 50 coded pairs, 32 validator bits each (allowing rare fallbacks).
  EXPECT_LE(result.metrics.command_bits, 50u * 32u);
  EXPECT_GT(result.metrics.command_bits, 40u * 32u);
}

TEST(CodedPolling, FasterThanCppSlowerThanHashFamily) {
  const auto pop = uniform(2000, 13);
  sim::SessionConfig config;
  const auto cp = CodedPolling().run(pop, config);
  const auto cpp = Cpp().run(pop, config);
  EXPECT_LT(cp.exec_time_s(), cpp.exec_time_s());
  EXPECT_GT(cp.exec_time_s(), 0.45 * cpp.exec_time_s());
}

TEST(CodedPolling, CompleteCollection) {
  Xoshiro256ss rng(14);
  const auto pop = uniform(501, 14).with_random_payloads(8, rng);
  sim::SessionConfig config;
  config.info_bits = 8;
  const auto result = CodedPolling().run(pop, config);
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_TRUE(verify.ok) << verify.message;
}

TEST(CodedPolling, SingleTagPopulation) {
  const auto result = CodedPolling().run(uniform(1, 15), sim::SessionConfig{});
  EXPECT_EQ(result.metrics.polls, 1u);
  EXPECT_EQ(result.metrics.vector_bits, 96u);
}

class BaselineSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BaselineSweep, AllBaselinesComplete) {
  const std::size_t n = GetParam();
  const auto pop = uniform(n, 100 + n);
  sim::SessionConfig config;
  EXPECT_EQ(Cpp().run(pop, config).metrics.polls, n);
  EXPECT_EQ(CodedPolling().run(pop, config).metrics.polls, n);
  EXPECT_EQ(PrefixCpp().run(pop, config).metrics.polls, n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BaselineSweep,
                         ::testing::Values(1, 2, 3, 10, 101, 1024));

}  // namespace
}  // namespace rfid::protocols
