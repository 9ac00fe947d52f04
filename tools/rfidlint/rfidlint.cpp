#include "rfidlint.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace rfidlint {

namespace {

constexpr std::string_view kRuleBadPragma = "bad-pragma";

[[nodiscard]] std::vector<std::string> split_words(std::string_view text) {
  std::vector<std::string> words;
  std::size_t i = 0;
  while (i < text.size()) {
    i = skip_spaces(text, i);
    const std::size_t begin = i;
    while (i < text.size() &&
           std::isspace(static_cast<unsigned char>(text[i])) == 0)
      ++i;
    if (i > begin) words.emplace_back(text.substr(begin, i - begin));
  }
  return words;
}

/// The suppression table and the findings the framework itself owns
/// (pragma hygiene, region resolution).
struct DirectivePass final {
  std::vector<Finding> findings;
  /// suppressed[i] holds the rule ids allowed on line i+1.
  std::vector<std::vector<std::string>> suppressed;
};

[[nodiscard]] DirectivePass run_directive_pass(FileContext& context) {
  const SourceFile& source = *context.source;
  DirectivePass pass;
  pass.suppressed.resize(source.line_count());

  for (const Directive& directive : source.directives()) {
    if (directive.kind == Directive::Kind::kMalformed) {
      add_finding(pass.findings, context, directive.line, kRuleBadPragma,
                  "malformed rfidlint pragma (" + directive.problem +
                      "); expected 'rfidlint: allow(<rule>) — reason', "
                      "'rfidlint: hotpath(<name>)' or "
                      "'rfidlint: rng-position-pure(<name>)'");
      continue;
    }
    if (directive.kind == Directive::Kind::kAllow) {
      const auto& ids = rule_ids();
      if (std::find(ids.begin(), ids.end(), directive.argument) ==
          ids.end()) {
        add_finding(pass.findings, context, directive.line, kRuleBadPragma,
                    "unknown rule '" + directive.argument +
                        "' in rfidlint pragma");
        continue;
      }
      if (!directive.has_reason) {
        add_finding(pass.findings, context, directive.line, kRuleBadPragma,
                    "rfidlint pragma for '" + directive.argument +
                        "' has no reason; write 'rfidlint: allow(" +
                        directive.argument + ") — why'");
        continue;
      }
      // Inline pragma suppresses its own line; a standalone comment line
      // suppresses the next line that carries code.
      std::size_t target = directive.line - 1;
      if (source.code_empty(target)) {
        ++target;
        while (target < source.line_count() && source.code_empty(target))
          ++target;
      }
      if (target < source.line_count())
        pass.suppressed[target].push_back(directive.argument);
      continue;
    }
    // Region markers attach to the brace block (function body) that opens
    // within a few lines of the directive.
    const bool hotpath = directive.kind == Directive::Kind::kHotpath;
    const std::optional<Region> body = next_brace_block(source, directive.line);
    if (!body) {
      add_finding(pass.findings, context, directive.line, kRuleBadPragma,
                  std::string(hotpath ? "hotpath" : "rng-position-pure") +
                      "(" + directive.argument +
                      ") marker precedes no brace block; place it on or "
                      "just above the function it annotates");
      continue;
    }
    AnnotatedRegion region{directive.argument, *body, directive.line};
    (hotpath ? context.hotpaths : context.rng_pure)
        .push_back(std::move(region));
  }
  return pass;
}

}  // namespace

void add_finding(std::vector<Finding>& findings, const FileContext& context,
                 std::size_t line, std::string_view rule,
                 std::string message) {
  findings.push_back(Finding{context.source->path(), line, std::string(rule),
                             std::move(message)});
}

LayerSpec parse_layer_spec(std::string_view content) {
  LayerSpec spec;
  std::size_t start = 0;
  std::size_t line_no = 0;
  while (start <= content.size()) {
    const std::size_t end = content.find('\n', start);
    std::string_view line =
        content.substr(start, end == std::string_view::npos
                                  ? std::string_view::npos
                                  : end - start);
    ++line_no;
    const std::size_t hash = line.find('#');
    if (hash != std::string_view::npos) line = line.substr(0, hash);

    const std::vector<std::string> words = split_words(line);
    if (!words.empty()) {
      if (words[0] == "top") {
        if (words.size() != 2) {
          spec.errors.push_back(
              {line_no, "'top' takes exactly one scope name"});
        } else if (!spec.tops.insert(words[1]).second) {
          spec.errors.push_back(
              {line_no, "duplicate top scope '" + words[1] + "'"});
        }
      } else if (words[0] == "layer") {
        if (words.size() < 2 || words[1].back() != ':' ||
            words[1].size() == 1) {
          spec.errors.push_back(
              {line_no, "expected 'layer <name>: <deps...>'"});
        } else {
          const std::string name = words[1].substr(0, words[1].size() - 1);
          if (spec.declares(name)) {
            spec.errors.push_back(
                {line_no, "duplicate layer '" + name + "'"});
          } else {
            std::set<std::string> closure{name};
            bool deps_ok = true;
            for (std::size_t i = 2; i < words.size(); ++i) {
              const auto it = spec.allowed.find(words[i]);
              if (it == spec.allowed.end()) {
                // Declaration order is the topological order: a dep that
                // has not appeared yet is either unknown or an upward
                // edge, and both are spec bugs.
                spec.errors.push_back(
                    {line_no, "layer '" + name + "' depends on '" +
                                  words[i] +
                                  "' which is not declared above it"});
                deps_ok = false;
                continue;
              }
              closure.insert(it->second.begin(), it->second.end());
            }
            if (deps_ok) {
              spec.order.push_back(name);
              spec.allowed.emplace(name, std::move(closure));
            }
          }
        }
      } else {
        spec.errors.push_back(
            {line_no, "unknown keyword '" + words[0] +
                          "'; expected 'layer' or 'top'"});
      }
    }
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  if (spec.order.empty() && spec.errors.empty())
    spec.errors.push_back({0, "layer spec declares no layers"});
  return spec;
}

LayerSpec load_layer_spec(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    LayerSpec spec;
    spec.errors.push_back({0, "cannot read layer spec '" + path + "'"});
    return spec;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse_layer_spec(buffer.str());
}

const std::vector<const Analyzer*>& analyzers() {
  static const std::vector<const Analyzer*> kAnalyzers = {
      &determinism_analyzer(), &layer_analyzer(), &hotpath_analyzer(),
      &rng_purity_analyzer(), &phase_analyzer()};
  return kAnalyzers;
}

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> kIds = [] {
    // detlint-era order first so the pragma vocabulary is a superset of
    // the old tool's, then the framework rules, then per-analyzer rules
    // not already listed.
    std::vector<std::string> ids = {"wall-clock", "banned-rng",
                                    "unordered-iteration",
                                    "unnamed-rng-stream",
                                    std::string(kRuleBadPragma)};
    for (const Analyzer* analyzer : analyzers()) {
      for (const std::string_view rule : analyzer->rules()) {
        if (std::find(ids.begin(), ids.end(), rule) == ids.end())
          ids.emplace_back(rule);
      }
    }
    return ids;
  }();
  return kIds;
}

std::vector<Finding> lint_source(const std::string& file,
                                 std::string_view content,
                                 const Options& options,
                                 std::string_view rel) {
  const SourceFile source(file, content);
  FileContext context;
  context.source = &source;
  context.rel = rel.empty() ? file : std::string(rel);
  context.options = &options;

  DirectivePass pass = run_directive_pass(context);
  std::vector<Finding> findings = std::move(pass.findings);

  std::vector<Finding> raw;
  for (const Analyzer* analyzer : analyzers()) {
    if (!options.analyzers.empty() &&
        std::find(options.analyzers.begin(), options.analyzers.end(),
                  analyzer->name()) == options.analyzers.end())
      continue;
    analyzer->analyze(context, raw);
  }
  for (Finding& finding : raw) {
    const auto& allowed = pass.suppressed[finding.line - 1];
    if (std::find(allowed.begin(), allowed.end(), finding.rule) !=
        allowed.end())
      continue;
    findings.push_back(std::move(finding));
  }

  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return findings;
}

std::vector<Finding> lint_file(const std::string& path, const Options& options,
                               std::string_view rel) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return {Finding{path, 0, "io-error", "cannot read file"}};
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return lint_source(path, buffer.str(), options, rel);
}

std::vector<std::string> collect_sources(const std::string& root) {
  std::vector<std::string> files;
  namespace fs = std::filesystem;
  if (!fs::exists(root)) return files;
  for (const fs::directory_entry& entry :
       fs::recursive_directory_iterator(root)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc")
      files.push_back(entry.path().string());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string to_string(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": [" +
         finding.rule + "] " + finding.message;
}

}  // namespace rfidlint
