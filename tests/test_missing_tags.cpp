// Missing-tag scenarios (the paper's Section I anti-theft use case) across
// protocols, rates, and edge cases.
#include <gtest/gtest.h>

#include <type_traits>

#include "core/polling.hpp"

namespace rfid {
namespace {

using core::ProtocolKind;

// gtest prints a parameter that has no operator<< as its raw bytes, and the
// ctest name of each case carries that print. `pad` fills the alignment gap
// after `kind` with zeros, so no case name shows uninitialised memory.
struct MissingCase final {
  ProtocolKind kind;
  std::uint32_t pad = 0;
  std::size_t n;
  std::size_t missing_every;  ///< every k-th tag is absent
};
static_assert(std::has_unique_object_representations_v<MissingCase>);

MissingCase missing_case(ProtocolKind kind, std::size_t n, std::size_t every) {
  return MissingCase{.kind = kind, .n = n, .missing_every = every};
}

class MissingSweep : public ::testing::TestWithParam<MissingCase> {};

TEST_P(MissingSweep, ExactAndAccounted) {
  const ProtocolKind kind = GetParam().kind;
  const std::size_t n = GetParam().n;
  const std::size_t every = GetParam().missing_every;
  Xoshiro256ss rng(n + every);
  const auto pop = tags::TagPopulation::uniform_random(n, rng);
  std::unordered_set<TagId, TagIdHash> present;
  std::size_t expected_missing = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (i % every == 0)
      ++expected_missing;
    else
      present.insert(pop[i].id());
  }
  sim::SessionConfig config;
  config.seed = 17;
  const auto report = core::find_missing_tags(kind, pop, present, config);
  EXPECT_TRUE(report.exact) << protocols::to_string(kind);
  EXPECT_EQ(report.missing.size(), expected_missing);
  EXPECT_EQ(report.result.metrics.polls, n - expected_missing);
  EXPECT_EQ(report.result.metrics.missing, expected_missing);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MissingSweep,
    ::testing::Values(missing_case(ProtocolKind::kTpp, 1000, 2),
                      missing_case(ProtocolKind::kTpp, 1000, 50),
                      missing_case(ProtocolKind::kHpp, 1000, 7),
                      missing_case(ProtocolKind::kEhpp, 2000, 9),
                      missing_case(ProtocolKind::kMic, 1500, 4),
                      missing_case(ProtocolKind::kSic, 500, 3),
                      missing_case(ProtocolKind::kCpp, 300, 5),
                      missing_case(ProtocolKind::kCodedPolling, 600, 6),
                      missing_case(ProtocolKind::kPrefixCpp, 300, 4)),
    [](const auto& param_info) {
      return std::string(protocols::to_string(param_info.param.kind)) + "_n" +
             std::to_string(param_info.param.n) + "_e" +
             std::to_string(param_info.param.missing_every);
    });

TEST(MissingTags, AbsentPollsCostTimeButLessThanReplies) {
  Xoshiro256ss rng(1);
  const auto pop = tags::TagPopulation::uniform_random(500, rng);
  std::unordered_set<TagId, TagIdHash> all_present, half_present;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    all_present.insert(pop[i].id());
    if (i % 2 == 0) half_present.insert(pop[i].id());
  }
  sim::SessionConfig config;
  config.seed = 2;
  config.info_bits = 32;  // make replies expensive so absence is visible
  const auto full =
      core::find_missing_tags(ProtocolKind::kTpp, pop, all_present, config);
  const auto half =
      core::find_missing_tags(ProtocolKind::kTpp, pop, half_present, config);
  EXPECT_TRUE(half.exact);
  EXPECT_LT(half.result.exec_time_s(), full.result.exec_time_s());
}

TEST(MissingTags, MissingIdsAreSortedAndUnique) {
  Xoshiro256ss rng(3);
  const auto pop = tags::TagPopulation::uniform_random(200, rng);
  std::unordered_set<TagId, TagIdHash> present;
  for (std::size_t i = 100; i < 200; ++i) present.insert(pop[i].id());
  const auto report =
      core::find_missing_tags(ProtocolKind::kHpp, pop, present, {});
  ASSERT_EQ(report.missing.size(), 100u);
  for (std::size_t i = 1; i < report.missing.size(); ++i)
    EXPECT_LT(report.missing[i - 1], report.missing[i]);
}

TEST(MissingTags, StrangerTagsInPresentSetIgnored) {
  // Tags in the zone but not in the expected inventory never obstruct the
  // poll (they are not scheduled; their IDs simply sit in `present`).
  Xoshiro256ss rng(4);
  const auto pop = tags::TagPopulation::uniform_random(100, rng);
  const auto strangers = tags::TagPopulation::uniform_random(50, rng);
  std::unordered_set<TagId, TagIdHash> present;
  for (const tags::Tag& tag : pop) present.insert(tag.id());
  for (const tags::Tag& tag : strangers) present.insert(tag.id());
  const auto report =
      core::find_missing_tags(ProtocolKind::kTpp, pop, present, {});
  EXPECT_TRUE(report.exact);
  EXPECT_TRUE(report.missing.empty());
}

}  // namespace
}  // namespace rfid
