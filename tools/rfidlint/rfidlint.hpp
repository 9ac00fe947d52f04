// rfidlint — the repo-specific static-analysis framework.
//
// PR 5's detlint proved that a dependency-free token-level linter can gate
// the whole tree in CI in milliseconds. rfidlint grows it into a framework:
// one shared lexer (lex.hpp) feeds pluggable analyzers, each owning its own
// rule ids, so the architecture invariants PRs 4–9 established are enforced
// statically instead of only when a covered path executes.
//
// Analyzers and their rules (docs/static_analysis.md has the long form):
//   determinism      wall-clock            wall-time sources in simulator code
//     (analyzer 0)   unordered-iteration   walking a hash container declared
//                                          in the same file
//   layer-graph      layer-violation       #include edge not allowed by the
//                                          declared layer DAG (layers.spec)
//                    undeclared-layer      file or include target in a layer
//                                          the spec does not declare
//                    layer-spec            layer spec itself fails to parse
//   hotpath-alloc    hotpath-alloc         allocating construct inside a
//                                          region marked rfidlint: hotpath(x)
//   rng-purity       banned-rng            rand()/srand/random_device
//                    unnamed-rng-stream    draws through a bare `rng` handle
//                    conditional-draw      RNG draw nested under a
//                                          non-arm-gate conditional inside a
//                                          rfidlint: rng-position-pure(x)
//                                          region (PR 8–9 draw-position
//                                          contract)
//   phase-accounting unphased-charge       `time_us +=` with no obs::Phase
//                                          attribution nearby
//                    raw-phase-mutation    `phases.us[...] +=` outside
//                                          src/obs
// Framework-owned rules:
//   bad-pragma       malformed directive, unknown rule id, missing reason,
//                    or a region marker that precedes no brace block
//
// Suppression, inline (same line) or standalone (applies to the next code
// line):
//   ... flagged code ...  // rfidlint: allow(<rule>) — reason why
//
// Every finding is an error: any finding exits 1.
#pragma once

#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "lex.hpp"

namespace rfidlint {

struct Finding final {
  std::string file;      ///< path as given to lint_file / lint_source
  std::size_t line = 0;  ///< 1-based
  std::string rule;      ///< rule id, e.g. "layer-violation"
  std::string message;   ///< human-readable detail
};

/// One parse problem in a layer spec (line is 1-based; 0 = whole file).
struct SpecError final {
  std::size_t line = 0;
  std::string message;
};

/// The declared layer DAG. Spec grammar, one declaration per line
/// (# starts a comment):
///
///   layer <name>: <dep> <dep> ...   a layer and the layers it may include
///   top <name>                      a scope above all layers (tools, tests)
///
/// Every dep must have been declared on an earlier line, so declaration
/// order is a topological order and cycles cannot be written down.
struct LayerSpec final {
  std::vector<std::string> order;  ///< layers in declaration order
  /// Reflexive-transitive closure: allowed.at(L) holds every layer L may
  /// include from (always contains L itself).
  std::map<std::string, std::set<std::string>> allowed;
  std::set<std::string> tops;
  std::vector<SpecError> errors;

  [[nodiscard]] bool ok() const noexcept { return errors.empty(); }
  [[nodiscard]] bool declares(const std::string& layer) const {
    return allowed.count(layer) != 0;
  }
  [[nodiscard]] bool allows(const std::string& from,
                            const std::string& to) const {
    const auto it = allowed.find(from);
    return it != allowed.end() && it->second.count(to) != 0;
  }
};

[[nodiscard]] LayerSpec parse_layer_spec(std::string_view content);

/// Reads and parses a spec file; an unreadable file yields a single
/// line-0 error.
[[nodiscard]] LayerSpec load_layer_spec(const std::string& path);

struct Options final {
  /// Layer DAG for the layer-graph analyzer; nullptr disables it.
  const LayerSpec* layers = nullptr;
  /// Analyzer names to run; empty means all.
  std::vector<std::string> analyzers;
};

/// A region marker (`hotpath` / `rng-position-pure`) resolved to the brace
/// block it precedes.
struct AnnotatedRegion final {
  std::string name;
  Region body;
  std::size_t directive_line = 0;  ///< 1-based, for messages
};

/// Everything an analyzer gets to see about one translation unit.
struct FileContext final {
  const SourceFile* source = nullptr;
  /// Repo-relative path with '/' separators ("src/sim/air_loop.cpp");
  /// drives path-scoped rules (layer membership, src/obs exemption).
  std::string rel;
  const Options* options = nullptr;
  std::vector<AnnotatedRegion> hotpaths;
  std::vector<AnnotatedRegion> rng_pure;
};

class Analyzer {
 public:
  virtual ~Analyzer() = default;
  [[nodiscard]] virtual std::string_view name() const noexcept = 0;
  [[nodiscard]] virtual std::vector<std::string_view> rules() const = 0;
  virtual void analyze(const FileContext& context,
                       std::vector<Finding>& out) const = 0;
};

/// The registry, in fixed order (determinism analyzer first).
[[nodiscard]] const std::vector<const Analyzer*>& analyzers();

/// All known rule ids (valid targets for the allow pragma): the detlint-era
/// ids first, then the framework's, then each new analyzer's.
[[nodiscard]] const std::vector<std::string>& rule_ids();

/// Lints one translation unit given its content (fixture- and test-
/// friendly: no filesystem access). `file` is used verbatim in findings;
/// `rel` is the repo-relative path for path-scoped rules and defaults to
/// `file` when empty.
[[nodiscard]] std::vector<Finding> lint_source(const std::string& file,
                                               std::string_view content,
                                               const Options& options = {},
                                               std::string_view rel = {});

/// Reads and lints one file. A file that cannot be read yields a single
/// finding with rule "io-error".
[[nodiscard]] std::vector<Finding> lint_file(const std::string& path,
                                             const Options& options = {},
                                             std::string_view rel = {});

/// Recursively collects the .hpp/.cpp files under `root`, sorted so runs
/// are reproducible across filesystems.
[[nodiscard]] std::vector<std::string> collect_sources(
    const std::string& root);

/// Formats a finding as "file:line: [rule] message".
[[nodiscard]] std::string to_string(const Finding& finding);

/// Appends one finding; shared by the analyzers.
void add_finding(std::vector<Finding>& findings, const FileContext& context,
                 std::size_t line, std::string_view rule, std::string message);

// Analyzer factories, one per translation unit.
[[nodiscard]] const Analyzer& determinism_analyzer();
[[nodiscard]] const Analyzer& layer_analyzer();
[[nodiscard]] const Analyzer& hotpath_analyzer();
[[nodiscard]] const Analyzer& rng_purity_analyzer();
[[nodiscard]] const Analyzer& phase_analyzer();

}  // namespace rfidlint
