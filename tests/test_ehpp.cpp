// Tests for the Enhanced Hash Polling Protocol (paper Section III-D).
#include <gtest/gtest.h>

#include "analysis/ehpp_model.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "protocols/enhanced_hash_polling.hpp"
#include "protocols/hash_polling.hpp"
#include "sim/verify.hpp"

namespace rfid::protocols {
namespace {

sim::RunResult run_ehpp(std::size_t n, std::uint64_t seed,
                        Ehpp::Config config = Ehpp::Config()) {
  Xoshiro256ss rng(seed);
  const auto pop = tags::TagPopulation::uniform_random(n, rng);
  sim::SessionConfig session;
  session.seed = seed * 31 + 5;
  return Ehpp(config).run(pop, session);
}

TEST(Ehpp, CompleteCollection) {
  Xoshiro256ss rng(1);
  const auto pop = tags::TagPopulation::uniform_random(3000, rng)
                       .with_random_payloads(8, rng);
  sim::SessionConfig session;
  session.info_bits = 8;
  const auto result = Ehpp().run(pop, session);
  const auto verify = sim::verify_complete_collection(pop, result);
  EXPECT_TRUE(verify.ok) << verify.message;
}

TEST(Ehpp, NoSlotWaste) {
  const auto result = run_ehpp(2000, 2);
  EXPECT_EQ(result.metrics.polls, 2000u);
  EXPECT_EQ(result.channel.collision_slots, 0u);
  EXPECT_EQ(result.channel.empty_slots, 0u);
}

TEST(Ehpp, SmallPopulationEqualsHpp) {
  // The paper's tables show EHPP == HPP at n = 100: below the optimal
  // subset size no circle command is issued. Times must agree exactly
  // (HPP counts its init as command bits, EHPP as vector bits, so compare
  // total time and poll count rather than the w split).
  Xoshiro256ss rng(3);
  const auto pop = tags::TagPopulation::uniform_random(100, rng);
  sim::SessionConfig session;
  session.seed = 77;
  const auto ehpp = Ehpp().run(pop, session);
  const auto hpp = Hpp().run(pop, session);
  EXPECT_DOUBLE_EQ(ehpp.metrics.time_us, hpp.metrics.time_us);
  EXPECT_EQ(ehpp.metrics.circles, 0u);
  EXPECT_EQ(ehpp.metrics.vector_bits,
            hpp.metrics.vector_bits + hpp.metrics.command_bits);
}

TEST(Ehpp, VectorLengthStableAcrossPopulations) {
  // Fig. 10: EHPP's w stays ~9 bits regardless of n (l_c = 128).
  const double w_small = run_ehpp(5000, 4).avg_vector_bits();
  const double w_large = run_ehpp(40000, 5).avg_vector_bits();
  EXPECT_NEAR(w_small, w_large, 0.8);
  EXPECT_NEAR(w_small, 9.0, 1.0);
}

TEST(Ehpp, BeatsHppAtScale) {
  Xoshiro256ss rng(6);
  const auto pop = tags::TagPopulation::uniform_random(20000, rng);
  sim::SessionConfig session;
  session.seed = 99;
  const double w_hpp = Hpp().run(pop, session).avg_vector_bits();
  const double w_ehpp = Ehpp().run(pop, session).avg_vector_bits();
  EXPECT_LT(w_ehpp, w_hpp - 3.0);
}

TEST(Ehpp, LongerCircleCommandRaisesVector) {
  // Fig. 5: w increases with l_c.
  const double w_100 =
      run_ehpp(20000, 7, Ehpp::Config{.circle_command_bits = 100})
          .avg_vector_bits();
  const double w_400 =
      run_ehpp(20000, 8, Ehpp::Config{.circle_command_bits = 400})
          .avg_vector_bits();
  EXPECT_LT(w_100, w_400);
}

TEST(Ehpp, UsesMultipleCirclesAtScale) {
  const auto result = run_ehpp(10000, 9);
  EXPECT_GT(result.metrics.circles, 10u);
}

TEST(Ehpp, EffectiveSubsetSizeFollowsOptimizer) {
  const Ehpp defaulted;
  EXPECT_EQ(defaulted.effective_subset_size(),
            analysis::ehpp_optimal_subset_size(128.0, 32.0));
  const Ehpp pinned(Ehpp::Config{.subset_size = 500});
  EXPECT_EQ(pinned.effective_subset_size(), 500u);
}

TEST(Ehpp, MisconfiguredSubsetSizeStillCompletes) {
  // Robustness: a pathological subset size must degrade, not break.
  const auto tiny = run_ehpp(3000, 10, Ehpp::Config{.subset_size = 5});
  EXPECT_EQ(tiny.metrics.polls, 3000u);
  const auto huge = run_ehpp(3000, 11, Ehpp::Config{.subset_size = 100000});
  EXPECT_EQ(huge.metrics.polls, 3000u);
}

TEST(Ehpp, NonPowerOfTwoModulusIsRejected) {
  // Tags test H(r, id) mod F < f as (H & (F - 1)) < f, which only a power
  // of two F makes exact.
  for (const std::uint64_t modulus : {1'000'000ull, (1ull << 20) + 1}) {
    const Ehpp::Config config{.selection_modulus = modulus};
    EXPECT_THROW(run_ehpp(3000, 18, config), ContractViolation) << modulus;
  }
}

TEST(Ehpp, OptimalSubsetBeatsNeighbours) {
  // Ablation in miniature: the optimizer's n* should beat 4x-off settings.
  const std::size_t star = Ehpp().effective_subset_size();
  const double w_star = run_ehpp(20000, 12).avg_vector_bits();
  const double w_small =
      run_ehpp(20000, 12, Ehpp::Config{.subset_size = star / 4})
          .avg_vector_bits();
  const double w_big =
      run_ehpp(20000, 12, Ehpp::Config{.subset_size = star * 4})
          .avg_vector_bits();
  EXPECT_LT(w_star, w_small);
  EXPECT_LT(w_star, w_big);
}

TEST(Ehpp, DeterministicReplay) {
  const auto a = run_ehpp(2500, 13);
  const auto b = run_ehpp(2500, 13);
  EXPECT_EQ(a.metrics.vector_bits, b.metrics.vector_bits);
  EXPECT_EQ(a.metrics.circles, b.metrics.circles);
  EXPECT_DOUBLE_EQ(a.metrics.time_us, b.metrics.time_us);
}

class EhppPopulationSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EhppPopulationSweep, CompleteAndWasteFree) {
  const std::size_t n = GetParam();
  const auto result = run_ehpp(n, 17 * n + 3);
  EXPECT_EQ(result.metrics.polls, n);
  EXPECT_EQ(result.channel.collision_slots, 0u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, EhppPopulationSweep,
                         ::testing::Values(1, 2, 10, 100, 150, 500, 1000,
                                           5000, 12000));

}  // namespace
}  // namespace rfid::protocols
