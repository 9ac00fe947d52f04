// Closed-form time projections vs the simulator: each validates the other.
#include <gtest/gtest.h>

#include <cstdint>

#include "common/math_util.hpp"
#include "core/polling.hpp"
#include "core/projection.hpp"

namespace rfid::core {
namespace {

double simulated_time_s(ProtocolKind kind, std::size_t n, std::size_t l,
                        std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const auto pop = tags::TagPopulation::uniform_random(n, rng);
  sim::SessionConfig config;
  config.info_bits = l;
  config.seed = seed + 1;
  config.keep_records = false;
  return protocols::make_protocol(kind)->run(pop, config).exec_time_s();
}

// gtest prints a parameter that has no operator<< as its raw bytes, and the
// ctest name of each case carries that print. `pad` fills the alignment gap
// after `kind` with zeros, so no case name shows uninitialised memory.
struct ProjectionCase final {
  ProtocolKind kind;
  std::uint32_t pad = 0;
  std::size_t n;
  std::size_t l;
  double tolerance;  ///< relative
};
static_assert(sizeof(ProjectionCase) ==
              sizeof(ProtocolKind) + sizeof(std::uint32_t) +
                  2 * sizeof(std::size_t) + sizeof(double));

ProjectionCase projection_case(ProtocolKind kind, std::size_t n,
                               std::size_t l, double tolerance) {
  return ProjectionCase{.kind = kind, .n = n, .l = l, .tolerance = tolerance};
}

class ProjectionSweep : public ::testing::TestWithParam<ProjectionCase> {};

TEST_P(ProjectionSweep, ModelTracksSimulation) {
  const ProtocolKind kind = GetParam().kind;
  const std::size_t n = GetParam().n;
  const std::size_t l = GetParam().l;
  const auto projected = projected_protocol_time_s(kind, n, l);
  ASSERT_TRUE(projected.has_value());
  const double simulated = simulated_time_s(kind, n, l, 1234 + n);
  EXPECT_LT(relative_difference(*projected, simulated), GetParam().tolerance)
      << protocols::to_string(kind) << " projected " << *projected
      << " vs simulated " << simulated;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ProjectionSweep,
    ::testing::Values(
        projection_case(ProtocolKind::kCpp, 1000, 1, 1e-9),  // exact
        projection_case(ProtocolKind::kCpp, 5000, 32, 1e-9),
        projection_case(ProtocolKind::kCodedPolling, 1000, 1, 0.01),
        projection_case(ProtocolKind::kHpp, 5000, 1, 0.03),
        projection_case(ProtocolKind::kHpp, 20000, 16, 0.03),
        projection_case(ProtocolKind::kEhpp, 10000, 1, 0.05),
        projection_case(ProtocolKind::kTpp, 10000, 1, 0.05),
        projection_case(ProtocolKind::kTpp, 30000, 32, 0.05)),
    [](const auto& param_info) {
      return std::string(protocols::to_string(param_info.param.kind)) + "_n" +
             std::to_string(param_info.param.n) + "_l" +
             std::to_string(param_info.param.l);
    });

TEST(Projection, UnmodeledProtocolsReturnNullopt) {
  EXPECT_FALSE(projected_protocol_time_s(ProtocolKind::kMic, 100, 1));
  EXPECT_FALSE(projected_protocol_time_s(ProtocolKind::kSic, 100, 1));
  EXPECT_FALSE(projected_protocol_time_s(ProtocolKind::kDfsa, 100, 1));
  EXPECT_FALSE(projected_protocol_time_s(ProtocolKind::kPrefixCpp, 100, 1));
}

TEST(Projection, OrderingMatchesPaper) {
  const std::size_t n = 10000;
  const double cpp = *projected_protocol_time_s(ProtocolKind::kCpp, n, 1);
  const double cp =
      *projected_protocol_time_s(ProtocolKind::kCodedPolling, n, 1);
  const double hpp = *projected_protocol_time_s(ProtocolKind::kHpp, n, 1);
  const double ehpp = *projected_protocol_time_s(ProtocolKind::kEhpp, n, 1);
  const double tpp = *projected_protocol_time_s(ProtocolKind::kTpp, n, 1);
  EXPECT_LT(tpp, ehpp);
  EXPECT_LT(ehpp, hpp);
  EXPECT_LT(hpp, cp);
  EXPECT_LT(cp, cpp);
}

}  // namespace
}  // namespace rfid::core
