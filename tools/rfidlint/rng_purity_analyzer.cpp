// rng-purity analyzer: the detlint-era RNG rules (banned sources, unnamed
// stream handles) plus the PR 8–9 draw-position contract. A region marked
// `// rfidlint: rng-position-pure(<name>)` promises that its stream
// position after N calls depends only on N and the config — one draw per
// *armed* probability, never gated on sampled data. Inside such a region a
// draw may sit under an arm-gate conditional (`p > 0`, `enabled(...)`:
// config-derived, stable across the run) but not under any other
// conditional, where a data-dependent branch would shift every later draw.
// Guard forms on the draw's own statement (`p > 0.0 && rng_.bernoulli(p)`,
// ternaries, `if (...)` condition lines) stay legal: they do not nest the
// draw inside a conditional *block*.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "rfidlint.hpp"

namespace rfidlint {

namespace {

constexpr std::string_view kRuleBannedRng = "banned-rng";
constexpr std::string_view kRuleUnnamedRngStream = "unnamed-rng-stream";
constexpr std::string_view kRuleConditionalDraw = "conditional-draw";

/// banned-rng: randomness not drawn from a seeded Xoshiro256ss stream.
void check_banned_rng(std::vector<Finding>& findings,
                      const FileContext& context, std::size_t line_no,
                      std::string_view code) {
  if (find_word(code, "random_device") != std::string_view::npos)
    add_finding(findings, context, line_no, kRuleBannedRng,
                "std::random_device is nondeterministic; seed a "
                "Xoshiro256ss stream instead");
  if (find_word(code, "srand") != std::string_view::npos)
    add_finding(findings, context, line_no, kRuleBannedRng,
                "srand() seeds hidden global state; use a Xoshiro256ss "
                "stream");
  for (std::size_t pos = find_word(code, "rand");
       pos != std::string_view::npos; pos = find_word(code, "rand", pos + 1)) {
    const std::size_t i = skip_spaces(code, pos + 4);
    if (i < code.size() && code[i] == '(')
      add_finding(findings, context, line_no, kRuleBannedRng,
                  "rand() draws from hidden global state; use a "
                  "Xoshiro256ss stream");
  }
}

/// unnamed-rng-stream: a draw through a handle named bare `rng`/`rng_`.
void check_unnamed_rng_stream(std::vector<Finding>& findings,
                              const FileContext& context,
                              std::size_t line_no, std::string_view code) {
  for (const std::string_view name :
       {std::string_view("rng"), std::string_view("rng_")}) {
    for (std::size_t pos = find_word(code, name);
         pos != std::string_view::npos;
         pos = find_word(code, name, pos + 1)) {
      const std::size_t after = skip_spaces(code, pos + name.size());
      if (after < code.size() &&
          (code[after] == '.' || code[after] == '(' ||
           (code[after] == '-' && after + 1 < code.size() &&
            code[after + 1] == '>'))) {
        add_finding(findings, context, line_no, kRuleUnnamedRngStream,
                    "RNG handle named bare '" + std::string(name) +
                        "': draws must go through a named stream "
                        "(protocol_rng, fault_rng_, id_rng, ...) so "
                        "streams cannot cross");
      }
    }
  }
}

/// True when the line carries a draw through a stream handle
/// (`.bernoulli(` / `.below(` / `.uniform01(`).
[[nodiscard]] bool has_draw(std::string_view code) {
  for (const std::string_view draw :
       {std::string_view("bernoulli"), std::string_view("below"),
        std::string_view("uniform01")}) {
    for (std::size_t pos = find_word(code, draw);
         pos != std::string_view::npos;
         pos = find_word(code, draw, pos + 1)) {
      const std::size_t before = rskip_spaces(code, pos);
      if (before == std::string_view::npos) continue;
      if (code[before] == '.' ||
          (code[before] == '>' && before > 0 && code[before - 1] == '-'))
        return true;
    }
  }
  return false;
}

/// An arm-gate condition depends only on the config: a probability tested
/// armed (`> 0`) or an explicit enable switch (`enabled(...)`).
[[nodiscard]] bool is_arm_gate(std::string_view condition) {
  std::string packed;
  for (const char c : condition)
    if (c != ' ' && c != '\t') packed += c;
  return packed.find(">0") != std::string::npos ||
         packed.find("enabled(") != std::string::npos;
}

/// Tracks conditional nesting across one rng-position-pure region and
/// flags draws inside non-arm-gate conditional blocks. Line-granular by
/// design: a draw on the same line as its `if` is the sanctioned
/// same-statement guard form and is never flagged.
void check_region(std::vector<Finding>& findings, const FileContext& context,
                  const AnnotatedRegion& region) {
  const SourceFile& source = *context.source;
  // One entry per open brace inside the region; true = neutral or
  // arm-gated, false = a conditional block a draw must not sit in.
  std::vector<bool> gates;
  // A classified `if`/`else` waiting for its `{` (or `;` if braceless).
  // A plain enum, not std::optional<bool>: gcc 12 at -O3 misreports the
  // optional's payload as maybe-uninitialized.
  enum class Pending : std::uint8_t { kNone, kArmed, kUnarmed };
  Pending pending = Pending::kNone;
  // When an if-condition spans lines, collect it until parens balance.
  bool collecting = false;
  int cond_depth = 0;
  std::string cond_text;

  for (std::size_t line = region.body.begin_line;
       line <= region.body.end_line && line <= source.line_count(); ++line) {
    const std::string_view code = source.code(line - 1);
    const bool line_has_if =
        find_word(code, "if") != std::string_view::npos;

    if (!line_has_if && has_draw(code)) {
      const bool in_unarmed_block =
          std::find(gates.begin(), gates.end(), false) != gates.end();
      if (in_unarmed_block || pending == Pending::kUnarmed) {
        add_finding(
            findings, context, line, kRuleConditionalDraw,
            "RNG draw nested under a conditional inside "
            "rng-position-pure(" +
                region.name +
                "); draws must be position-pure — one draw per armed "
                "probability, gated only on config (`p > 0`, `enabled()`)");
      }
    }

    std::size_t i = 0;
    while (i < code.size()) {
      const char c = code[i];
      if (collecting) {
        cond_text += c;
        if (c == '(') ++cond_depth;
        if (c == ')' && --cond_depth == 0) {
          collecting = false;
          pending =
              is_arm_gate(cond_text) ? Pending::kArmed : Pending::kUnarmed;
        }
        ++i;
        continue;
      }
      if (word_at(code, i, "if")) {
        const std::size_t open = code.find('(', i + 2);
        if (open != std::string_view::npos) {
          collecting = true;
          cond_depth = 0;
          cond_text.clear();
          i = open;
          continue;  // re-enter the loop in collecting mode at '('
        }
        i += 2;
        continue;
      }
      if (word_at(code, i, "else")) {
        // Bare `else`: the disarmed arm of a gate; `else if` re-classifies
        // via the `if` branch above on a later character.
        pending = Pending::kUnarmed;
        i += 4;
        continue;
      }
      if (c == '{') {
        gates.push_back(pending != Pending::kUnarmed);
        pending = Pending::kNone;
      } else if (c == '}') {
        if (!gates.empty()) gates.pop_back();
      } else if (c == ';' && pending != Pending::kNone) {
        pending = Pending::kNone;  // braceless body ended
      }
      ++i;
    }
  }
}

class RngPurityAnalyzer final : public Analyzer {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "rng-purity";
  }
  [[nodiscard]] std::vector<std::string_view> rules() const override {
    return {kRuleBannedRng, kRuleUnnamedRngStream, kRuleConditionalDraw};
  }
  void analyze(const FileContext& context,
               std::vector<Finding>& out) const override {
    const SourceFile& source = *context.source;
    for (std::size_t i = 0; i < source.line_count(); ++i) {
      check_banned_rng(out, context, i + 1, source.code(i));
      check_unnamed_rng_stream(out, context, i + 1, source.code(i));
    }
    for (const AnnotatedRegion& region : context.rng_pure)
      check_region(out, context, region);
  }
};

}  // namespace

const Analyzer& rng_purity_analyzer() {
  static const RngPurityAnalyzer kAnalyzer;
  return kAnalyzer;
}

}  // namespace rfidlint
