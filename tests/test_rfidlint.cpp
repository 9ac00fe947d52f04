// tools/rfidlint fixture tests: exact rule IDs and line numbers per
// violation fixture for every analyzer, clean passes for the passing and
// allowlist fixtures, layer-spec parsing (including the checked-in repo
// spec rejecting an artificial upward include), and direct lint_source
// cases for the tokenizer and pragma edge cases.
#include "rfidlint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

namespace {

std::string fixture(const std::string& name) {
  return std::string(RFIDLINT_FIXTURE_DIR) + "/" + name;
}

/// (rule, line) pairs of a fixture's findings, in report order.
std::vector<std::pair<std::string, std::size_t>> findings_of(
    const std::string& name, const rfidlint::Options& options = {},
    std::string_view rel = {}) {
  std::vector<std::pair<std::string, std::size_t>> out;
  for (const rfidlint::Finding& finding :
       rfidlint::lint_file(fixture(name), options, rel))
    out.emplace_back(finding.rule, finding.line);
  return out;
}

using Expected = std::vector<std::pair<std::string, std::size_t>>;

// --- detlint-era fixtures (analyzer zero + rng-purity) ----------------------

TEST(Rfidlint, CleanFixturePasses) {
  EXPECT_EQ(findings_of("clean.cpp"), Expected{});
}

TEST(Rfidlint, WallClockFixture) {
  EXPECT_EQ(findings_of("wall_clock.cpp"),
            (Expected{{"wall-clock", 8}, {"wall-clock", 12}}));
}

TEST(Rfidlint, BannedRngFixture) {
  EXPECT_EQ(findings_of("banned_rng.cpp"),
            (Expected{{"banned-rng", 8},
                      {"banned-rng", 9},
                      {"banned-rng", 13}}));
}

TEST(Rfidlint, UnorderedIterationFixture) {
  EXPECT_EQ(findings_of("unordered_iteration.cpp"),
            (Expected{{"unordered-iteration", 15},
                      {"unordered-iteration", 17}}));
}

TEST(Rfidlint, UnnamedRngStreamFixture) {
  EXPECT_EQ(findings_of("unnamed_rng_stream.cpp"),
            (Expected{{"unnamed-rng-stream", 16},
                      {"unnamed-rng-stream", 17}}));
}

TEST(Rfidlint, AllowPragmaSuppresses) {
  EXPECT_EQ(findings_of("allow_pragma.cpp"), Expected{});
}

TEST(Rfidlint, MalformedPragmasAreFindingsAndDoNotSuppress) {
  EXPECT_EQ(findings_of("bad_pragma.cpp"), (Expected{{"bad-pragma", 9},
                                                     {"banned-rng", 9},
                                                     {"bad-pragma", 13},
                                                     {"banned-rng", 13},
                                                     {"bad-pragma", 17},
                                                     {"banned-rng", 17}}));
}

// --- hotpath-alloc analyzer -------------------------------------------------

TEST(Rfidlint, HotpathCleanFixturePasses) {
  EXPECT_EQ(findings_of("hotpath_clean.cpp"), Expected{});
}

TEST(Rfidlint, HotpathAllocFixture) {
  EXPECT_EQ(findings_of("hotpath_alloc.cpp"),
            (Expected{{"hotpath-alloc", 17},
                      {"hotpath-alloc", 18},
                      {"hotpath-alloc", 19},
                      {"hotpath-alloc", 20},
                      {"hotpath-alloc", 21}}));
}

// --- rng-purity analyzer (draw-position contract) ---------------------------

TEST(Rfidlint, RngPositionPureCleanFixturePasses) {
  EXPECT_EQ(findings_of("rng_pure_clean.cpp"), Expected{});
}

TEST(Rfidlint, ConditionalDrawFixture) {
  EXPECT_EQ(findings_of("rng_pure_conditional.cpp"),
            (Expected{{"conditional-draw", 19}, {"conditional-draw", 24}}));
}

// --- phase-accounting analyzer ----------------------------------------------

TEST(Rfidlint, PhaseCleanFixturePasses) {
  EXPECT_EQ(findings_of("phase_clean.cpp"), Expected{});
}

TEST(Rfidlint, PhaseUnphasedFixture) {
  EXPECT_EQ(findings_of("phase_unphased.cpp"),
            (Expected{{"unphased-charge", 29},
                      {"unphased-charge", 33},
                      {"raw-phase-mutation", 38}}));
}

TEST(Rfidlint, ObsLayerIsExemptFromPhaseRules) {
  rfidlint::Options options;
  EXPECT_EQ(findings_of("phase_unphased.cpp", options,
                        "src/obs/phase_unphased.cpp"),
            Expected{});
}

// --- layer-graph analyzer ---------------------------------------------------

class LayerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    spec_ = rfidlint::load_layer_spec(fixture("layer_tree/layers.spec"));
    ASSERT_TRUE(spec_.ok());
    options_.layers = &spec_;
  }
  [[nodiscard]] Expected tree_findings(const std::string& rel) {
    return findings_of("layer_tree/" + rel, options_, rel);
  }
  rfidlint::LayerSpec spec_;
  rfidlint::Options options_;
};

TEST_F(LayerFixture, DownwardAndIntraLayerEdgesPass) {
  EXPECT_EQ(tree_findings("src/common/ok.hpp"), Expected{});
  EXPECT_EQ(tree_findings("src/sim/engine.hpp"), Expected{});
}

TEST_F(LayerFixture, UpwardIncludeIsRejected) {
  EXPECT_EQ(tree_findings("src/common/upward.hpp"),
            (Expected{{"layer-violation", 5}}));
}

TEST_F(LayerFixture, IncludeOfUndeclaredLayerIsRejected) {
  EXPECT_EQ(tree_findings("src/sim/stray.hpp"),
            (Expected{{"undeclared-layer", 5}}));
}

TEST_F(LayerFixture, FileInUndeclaredLayerIsRejected) {
  EXPECT_EQ(tree_findings("src/widgets/widget.hpp"),
            (Expected{{"undeclared-layer", 1}}));
}

TEST_F(LayerFixture, TopScopesMayIncludeAnything) {
  EXPECT_EQ(tree_findings("tools/probe.hpp"), Expected{});
}

TEST(Rfidlint, BadLayerSpecReportsEveryParseError) {
  const rfidlint::LayerSpec spec =
      rfidlint::load_layer_spec(fixture("layer_bad.spec"));
  ASSERT_EQ(spec.errors.size(), 4u);
  EXPECT_EQ(spec.errors[0].line, 7u);  // dep not declared above its user
  EXPECT_EQ(spec.errors[1].line, 8u);  // unknown keyword
  EXPECT_EQ(spec.errors[2].line, 9u);  // duplicate layer
  EXPECT_EQ(spec.errors[3].line, 10u);  // 'top' arity
}

TEST(Rfidlint, UnreadableLayerSpecIsAnError) {
  const rfidlint::LayerSpec spec =
      rfidlint::load_layer_spec(fixture("does_not_exist.spec"));
  EXPECT_FALSE(spec.ok());
}

TEST(Rfidlint, RepoSpecRejectsArtificialUpwardInclude) {
  // The checked-in DAG must reject an analysis → sim edge (the back-edge
  // this PR removed from src/analysis/energy_model.hpp) and an obs → sim
  // edge, without touching the real tree.
  const rfidlint::LayerSpec spec =
      rfidlint::load_layer_spec(RFIDLINT_REPO_LAYERS);
  ASSERT_TRUE(spec.ok());
  rfidlint::Options options;
  options.layers = &spec;
  const auto analysis_up = rfidlint::lint_source(
      "fake.hpp", "#include \"sim/metrics.hpp\"\n", options,
      "src/analysis/fake.hpp");
  ASSERT_EQ(analysis_up.size(), 1u);
  EXPECT_EQ(analysis_up[0].rule, "layer-violation");
  const auto obs_up = rfidlint::lint_source(
      "fake.hpp", "#include \"sim/air_loop.hpp\"\n", options,
      "src/obs/fake.hpp");
  ASSERT_EQ(obs_up.size(), 1u);
  EXPECT_EQ(obs_up[0].rule, "layer-violation");
  // phy is the pure C1G2 model: it may not reach into the fault layer
  // (the edge the downlink's corruption draws once needed).
  const auto phy_up = rfidlint::lint_source(
      "fake.hpp", "#include \"fault/injector.hpp\"\n", options,
      "src/phy/fake.hpp");
  ASSERT_EQ(phy_up.size(), 1u);
  EXPECT_EQ(phy_up[0].rule, "layer-violation");
  // ...while the fixed include and the sanctioned downward edges pass.
  EXPECT_TRUE(rfidlint::lint_source("fake.hpp",
                                    "#include \"obs/metrics.hpp\"\n", options,
                                    "src/analysis/fake.hpp")
                  .empty());
  EXPECT_TRUE(rfidlint::lint_source("fake.hpp",
                                    "#include \"protocols/polling.hpp\"\n",
                                    options, "src/core/fake.hpp")
                  .empty());
}

// --- framework behavior -----------------------------------------------------

TEST(Rfidlint, AnalyzerFilterDisablesOtherRules) {
  rfidlint::Options options;
  options.analyzers = {"determinism"};
  const auto findings = rfidlint::lint_source(
      "t.cpp",
      "long t = std::chrono::system_clock::now().time_since_epoch().count();\n"
      "int a = std::rand();\n",
      options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "wall-clock");
}

TEST(Rfidlint, HotpathMarkerWithoutBlockIsBadPragma) {
  const auto findings = rfidlint::lint_source(
      "t.cpp", "// rfidlint: hotpath(orphan)\nint x = 0;\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "bad-pragma");
  EXPECT_EQ(findings[0].line, 1u);
}

TEST(Rfidlint, RegionMarkerNeedsRfidlintSpelling) {
  // Only the rfidlint: prefix makes a directive. The old detlint: spelling
  // is plain comment text: it neither marks a region nor suppresses.
  const auto findings = rfidlint::lint_source(
      "t.cpp",
      "// detlint: hotpath(engine)\n"
      "void f() { g(); }\n"
      "int a = std::rand();  // detlint: allow(banned-rng) — old spelling\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned-rng");
  EXPECT_EQ(findings[0].line, 3u);
}

// --- lint_source edge cases -------------------------------------------------

TEST(Rfidlint, CommentsAndStringsAreInvisible) {
  const auto findings = rfidlint::lint_source(
      "t.cpp",
      "// std::rand() in a comment\n"
      "/* system_clock in a block\n   comment spanning lines */\n"
      "const char* s = \"random_device\";\n"
      "const char* r = R\"(for (x : some_unordered_set.begin()))\";\n");
  EXPECT_TRUE(findings.empty());
}

TEST(Rfidlint, PreprocessorLinesAreSkipped) {
  const auto findings = rfidlint::lint_source(
      "t.cpp",
      "#include <unordered_map>\n"
      "#include <ctime>\n"
      "#define DRAW() rng()\n");
  EXPECT_TRUE(findings.empty());
}

TEST(Rfidlint, MultiLineRangeForIsStillCaught) {
  // The declared name and the `:` land on the same physical line even when
  // the for-header wraps — the token-level check keys on that.
  const auto findings = rfidlint::lint_source(
      "t.cpp",
      "std::unordered_map<int, long> table;\n"
      "for (const auto& [k, v]\n"
      "     : table)\n"
      "  use(k, v);\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unordered-iteration");
  EXPECT_EQ(findings[0].line, 3u);
}

TEST(Rfidlint, StandalonePragmaCoversOnlyNextCodeLine) {
  const auto findings = rfidlint::lint_source(
      "t.cpp",
      "// rfidlint: allow(banned-rng) — first call audited\n"
      "int a = std::rand();\n"
      "int b = std::rand();\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_EQ(findings[0].rule, "banned-rng");
}

TEST(Rfidlint, PragmaForOneRuleDoesNotSuppressAnother) {
  const auto findings = rfidlint::lint_source(
      "t.cpp",
      "int a = std::rand();  // rfidlint: allow(wall-clock) — wrong rule\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "banned-rng");
}

TEST(Rfidlint, RuleIdsAreStable) {
  const std::vector<std::string> expected{
      "wall-clock",      "banned-rng",       "unordered-iteration",
      "unnamed-rng-stream", "bad-pragma",
      "layer-violation", "undeclared-layer", "layer-spec",
      "hotpath-alloc",   "conditional-draw", "unphased-charge",
      "raw-phase-mutation"};
  EXPECT_EQ(rfidlint::rule_ids(), expected);
  // The detlint-era vocabulary survives as a prefix: no coverage
  // regression for existing pragmas and muscle memory.
  const std::vector<std::string> detlint_era{"wall-clock", "banned-rng",
                                             "unordered-iteration",
                                             "unnamed-rng-stream",
                                             "bad-pragma"};
  ASSERT_GE(rfidlint::rule_ids().size(), detlint_era.size());
  EXPECT_TRUE(std::equal(detlint_era.begin(), detlint_era.end(),
                         rfidlint::rule_ids().begin()));
}

TEST(Rfidlint, AnalyzerRegistryIsStable) {
  std::vector<std::string> names;
  for (const rfidlint::Analyzer* analyzer : rfidlint::analyzers())
    names.emplace_back(analyzer->name());
  const std::vector<std::string> expected{"determinism", "layer-graph",
                                          "hotpath-alloc", "rng-purity",
                                          "phase-accounting"};
  EXPECT_EQ(names, expected);
}

TEST(Rfidlint, UnreadableFileIsAnIoError) {
  const auto findings = rfidlint::lint_file(fixture("does_not_exist.cpp"));
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "io-error");
}

TEST(Rfidlint, CollectSourcesIsSortedAndComplete) {
  const auto files = rfidlint::collect_sources(RFIDLINT_FIXTURE_DIR);
  ASSERT_EQ(files.size(), 19u);
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
}

}  // namespace
