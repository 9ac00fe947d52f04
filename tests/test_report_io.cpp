// Tests for JSON export and the analytical MIC model.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <unordered_set>

#include "analysis/mic_model.hpp"
#include "core/polling.hpp"
#include "protocols/mic.hpp"
#include "sim/report_io.hpp"

namespace rfid {
namespace {

sim::RunResult small_run() {
  Xoshiro256ss rng(1);
  const auto pop = tags::TagPopulation::uniform_random(20, rng);
  sim::SessionConfig config;
  config.seed = 2;
  return protocols::make_protocol(core::ProtocolKind::kTpp)->run(pop, config);
}

TEST(ReportJson, ContainsCoreFields) {
  const std::string json = sim::to_json(small_run());
  EXPECT_NE(json.find("\"protocol\": \"TPP\""), std::string::npos);
  EXPECT_NE(json.find("\"population\": 20"), std::string::npos);
  EXPECT_NE(json.find("\"polls\": 20"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\""), std::string::npos);
  EXPECT_NE(json.find("\"channel\""), std::string::npos);
  EXPECT_EQ(json.find("\"records\""), std::string::npos);  // off by default
}

TEST(ReportJson, BalancedBracesAndQuotes) {
  for (const int indent : {0, 2, 4}) {
    sim::JsonOptions options;
    options.indent = indent;
    options.include_records = true;
    const std::string json = sim::to_json(small_run(), options);
    std::ptrdiff_t braces = 0, brackets = 0;
    std::size_t quotes = 0;
    for (const char c : json) {
      braces += (c == '{') - (c == '}');
      brackets += (c == '[') - (c == ']');
      quotes += (c == '"');
    }
    EXPECT_EQ(braces, 0) << indent;
    EXPECT_EQ(brackets, 0) << indent;
    EXPECT_EQ(quotes % 2, 0u) << indent;
  }
}

TEST(ReportJson, CompactModeSingleLine) {
  sim::JsonOptions options;
  options.indent = 0;
  const std::string json = sim::to_json(small_run(), options);
  EXPECT_EQ(json.find('\n'), std::string::npos);
}

TEST(ReportJson, RecordsIncludePayloads) {
  sim::JsonOptions options;
  options.include_records = true;
  const std::string json = sim::to_json(small_run(), options);
  EXPECT_NE(json.find("\"records\""), std::string::npos);
  EXPECT_NE(json.find("\"payload\""), std::string::npos);
}

TEST(ReportJson, MissingIdsSerialized) {
  Xoshiro256ss rng(3);
  const auto pop = tags::TagPopulation::uniform_random(30, rng);
  std::unordered_set<TagId, TagIdHash> present;
  for (std::size_t i = 1; i < pop.size(); ++i) present.insert(pop[i].id());
  const auto report =
      core::find_missing_tags(core::ProtocolKind::kHpp, pop, present, {});
  const std::string json = sim::to_json(report.result);
  EXPECT_NE(json.find(pop[0].id().to_hex()), std::string::npos);
}

TEST(MicModel, FixedPointMatchesPublishedFigures) {
  // k = 7 -> 13.9% wasted slots; k = 1 -> 63.2% (the numbers both MIC's
  // authors and the paper's related-work section quote).
  EXPECT_NEAR(analysis::mic_expected_waste(7), 0.139, 0.002);
  EXPECT_NEAR(analysis::mic_expected_waste(1), 0.632, 0.001);
}

TEST(MicModel, WasteDecreasesInK) {
  for (unsigned k = 1; k < 10; ++k)
    EXPECT_GT(analysis::mic_expected_waste(k),
              analysis::mic_expected_waste(k + 1));
}

TEST(MicModel, ResolvedComplementsUnassigned) {
  for (unsigned k = 1; k <= 8; ++k) {
    const double resolved = analysis::mic_expected_resolved(k);
    EXPECT_GT(resolved, 0.0);
    EXPECT_LT(resolved, 1.0);
  }
  // At factor 1 the unassigned-tag and unmarked-slot fractions coincide.
  EXPECT_NEAR(analysis::mic_expected_resolved(7),
              1.0 - analysis::mic_expected_waste(7), 1e-12);
}

TEST(MicModel, ModelTracksSimulationAcrossK) {
  Xoshiro256ss rng(4);
  const auto pop = tags::TagPopulation::uniform_random(20000, rng);
  sim::SessionConfig config;
  config.seed = 5;
  config.keep_records = false;
  for (const unsigned k : {1u, 3u, 5u, 7u}) {
    const auto result =
        protocols::Mic(protocols::Mic::Config{.num_hashes = k})
            .run(pop, config);
    // Session waste aggregates later (smaller) frames too; first-frame
    // dominance keeps it within a couple of points of the fixed point.
    EXPECT_NEAR(result.metrics.waste_fraction(),
                analysis::mic_expected_waste(k), 0.02)
        << k;
  }
}

TEST(MicModel, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(analysis::mic_expected_waste(0), 1.0);
  EXPECT_DOUBLE_EQ(analysis::mic_expected_waste(7, 0.0), 1.0);
}

}  // namespace
}  // namespace rfid
