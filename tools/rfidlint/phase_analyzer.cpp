// phase-accounting analyzer: every airtime charge must name an obs::Phase.
// The phase breakdown (obs::PhaseBreakdown) is the paper-facing output that
// splits protocol airtime into reader-vector / command / turnaround /
// tag-reply / wasted-slot / recovery time; a `time_us +=` with no phase
// attribution silently under-reports one of those buckets. Attribution is
// recognised within a 3-line window after the charge (`add_phase`,
// `phases.add`) — every legitimate charge site in the tree attributes on
// the same or next line; the window gives multi-line call formatting room.
// A callback that merely forwards a phase elsewhere is not an attribution:
// the charge and its phase must be visible at one site. Raw `phases.us[...] +=` mutation belongs to src/obs
// (PhaseBreakdown::add / merge); anywhere else it bypasses the recovery
// redirect (AirLoop::add_phase) and the merge invariants.
#include <string>
#include <vector>

#include "rfidlint.hpp"

namespace rfidlint {

namespace {

constexpr std::string_view kRuleUnphasedCharge = "unphased-charge";
constexpr std::string_view kRuleRawPhaseMutation = "raw-phase-mutation";

/// How many lines after a charge may carry its phase attribution.
constexpr std::size_t kAttributionWindow = 3;

/// True when `word` at some position is followed (spaces aside) by `+=`.
[[nodiscard]] bool word_followed_by_plus_equals(std::string_view code,
                                                std::string_view word) {
  for (std::size_t pos = find_word(code, word);
       pos != std::string_view::npos;
       pos = find_word(code, word, pos + 1)) {
    const std::size_t after = skip_spaces(code, pos + word.size());
    if (after + 1 < code.size() && code[after] == '+' &&
        code[after + 1] == '=')
      return true;
  }
  return false;
}

/// True when the line names a phase-attribution call.
[[nodiscard]] bool has_attribution(std::string_view code) {
  if (find_word(code, "add_phase") != std::string_view::npos) return true;
  for (std::size_t pos = find_word(code, "phases");
       pos != std::string_view::npos;
       pos = find_word(code, "phases", pos + 1)) {
    std::size_t i = skip_spaces(code, pos + 6);
    if (i >= code.size() || code[i] != '.') continue;
    i = skip_spaces(code, i + 1);
    if (word_at(code, i, "add")) return true;
  }
  return false;
}

/// `phases.us[...] +=` — raw mutation of the breakdown array.
[[nodiscard]] bool has_raw_phase_mutation(std::string_view code) {
  for (std::size_t pos = find_word(code, "phases");
       pos != std::string_view::npos;
       pos = find_word(code, "phases", pos + 1)) {
    std::size_t i = skip_spaces(code, pos + 6);
    if (i >= code.size() || code[i] != '.') continue;
    i = skip_spaces(code, i + 1);
    if (!word_at(code, i, "us")) continue;
    i = skip_spaces(code, i + 2);
    if (i >= code.size() || code[i] != '[') continue;
    const std::size_t close = code.find(']', i);
    if (close == std::string_view::npos) continue;
    const std::size_t after = skip_spaces(code, close + 1);
    if (after + 1 < code.size() && code[after] == '+' &&
        code[after + 1] == '=')
      return true;
  }
  return false;
}

class PhaseAnalyzer final : public Analyzer {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "phase-accounting";
  }
  [[nodiscard]] std::vector<std::string_view> rules() const override {
    return {kRuleUnphasedCharge, kRuleRawPhaseMutation};
  }
  void analyze(const FileContext& context,
               std::vector<Finding>& out) const override {
    // src/obs owns the phase machinery; its internals are the one place
    // raw accumulation is the implementation, not a bypass.
    if (context.rel.rfind("src/obs/", 0) == 0) return;

    const SourceFile& source = *context.source;
    for (std::size_t i = 0; i < source.line_count(); ++i) {
      const std::string_view code = source.code(i);
      if (word_followed_by_plus_equals(code, "time_us")) {
        bool attributed = false;
        for (std::size_t j = i;
             j < source.line_count() && j <= i + kAttributionWindow; ++j) {
          if (has_attribution(source.code(j))) {
            attributed = true;
            break;
          }
        }
        if (!attributed)
          add_finding(out, context, i + 1, kRuleUnphasedCharge,
                      "airtime charge 'time_us +=' with no obs::Phase "
                      "attribution (add_phase / phases.add) "
                      "within " +
                          std::to_string(kAttributionWindow) +
                          " lines; every charge must name its phase");
      }
      if (has_raw_phase_mutation(code))
        add_finding(out, context, i + 1, kRuleRawPhaseMutation,
                    "raw mutation of 'phases.us[...]' outside src/obs; go "
                    "through PhaseBreakdown::add (or AirLoop::add_phase, "
                    "which handles the recovery redirect)");
    }
  }
};

}  // namespace

const Analyzer& phase_analyzer() {
  static const PhaseAnalyzer kAnalyzer;
  return kAnalyzer;
}

}  // namespace rfidlint
