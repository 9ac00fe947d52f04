// rfidlint's shared lexing layer.
//
// Every analyzer consumes the same token-level view of a translation unit:
// one SourceFile per input, each physical line split once into a code part
// (comments, string/char literals and raw strings blanked with spaces;
// preprocessor lines fully blanked) and a comment part (where the pragma
// directives live). The splitter is the comment/string/raw-string/
// preprocessor-aware scanner grown in tools/detlint; rfidlint hoists it
// here so the five analyzers and the framework driver share one tokenizer
// instead of five ad-hoc ones.
//
// Directive grammar (parsed out of comment text, anchored: the `rfidlint:`
// prefix must be the comment's first non-space content, so prose
// mentioning a pragma spelling is inert):
//
//   rfidlint: allow(<rule>) <separator> <reason>     suppression
//   rfidlint: hotpath(<name>)                        hot-path region marker
//   rfidlint: rng-position-pure(<name>)              RNG-purity region marker
//
// A suppression with no reason, an unknown directive verb, or a broken
// argument list is kept as a kMalformed directive so the framework can
// turn it into a bad-pragma finding — suppressions must not rot silently.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rfidlint {

[[nodiscard]] bool is_word(char c);

/// True when `text[pos..pos+word.size())` equals `word` and both sides are
/// word boundaries.
[[nodiscard]] bool word_at(std::string_view text, std::size_t pos,
                           std::string_view word);

/// First word-boundary occurrence of `word` in `text` at or after `from`,
/// or npos.
[[nodiscard]] std::size_t find_word(std::string_view text,
                                    std::string_view word,
                                    std::size_t from = 0);

[[nodiscard]] std::size_t skip_spaces(std::string_view text, std::size_t pos);

/// Position of the last non-space character before `pos`, or npos.
[[nodiscard]] std::size_t rskip_spaces(std::string_view text,
                                       std::size_t pos);

/// One physical source line, split into the code part and the comment text.
struct SplitLine final {
  std::string code;
  std::string comment;
};

/// Comment/string-aware splitter. Tracks block comments and raw string
/// literals across lines; ordinary string/char literals never span lines.
class LineSplitter final {
 public:
  [[nodiscard]] SplitLine split(std::string_view line);

 private:
  bool in_block_comment_ = false;
  bool in_raw_string_ = false;
  std::string raw_delimiter_;
};

/// One parsed `rfidlint:` directive.
struct Directive final {
  enum class Kind {
    kAllow,            ///< allow(<rule>) — reason
    kHotpath,          ///< hotpath(<name>) region marker
    kRngPositionPure,  ///< rng-position-pure(<name>) region marker
    kMalformed,        ///< anything the grammar above rejects
  };
  Kind kind = Kind::kMalformed;
  std::string argument;     ///< rule id (allow) or region name (markers)
  bool has_reason = false;  ///< allow only: word characters after the ')'
  std::size_t line = 0;     ///< 1-based
  std::string problem;      ///< kMalformed: what exactly is wrong
};

/// Parses every directive out of one line's comment text, in order of
/// appearance.
[[nodiscard]] std::vector<Directive> parse_directives(
    std::string_view comment, std::size_t line);

/// A translation unit split once and shared by every analyzer.
class SourceFile final {
 public:
  SourceFile(std::string path, std::string_view content);

  [[nodiscard]] const std::string& path() const noexcept { return path_; }
  [[nodiscard]] std::size_t line_count() const noexcept {
    return lines_.size();
  }
  /// 0-based accessors; `line_no` variants below are 1-based.
  [[nodiscard]] const std::string& raw(std::size_t i) const {
    return raw_[i];
  }
  [[nodiscard]] std::string_view code(std::size_t i) const {
    return lines_[i].code;
  }
  [[nodiscard]] std::string_view comment(std::size_t i) const {
    return lines_[i].comment;
  }
  /// True when the code part of line `i` (0-based) is all whitespace.
  [[nodiscard]] bool code_empty(std::size_t i) const;
  [[nodiscard]] const std::vector<Directive>& directives() const noexcept {
    return directives_;
  }

 private:
  std::string path_;
  std::vector<std::string> raw_;
  std::vector<SplitLine> lines_;
  std::vector<Directive> directives_;
};

/// A brace-delimited region, 1-based inclusive line numbers.
struct Region final {
  std::size_t begin_line = 0;  ///< line holding the opening '{'
  std::size_t end_line = 0;    ///< line holding the matching '}'
};

/// The first `{ ... }` block whose opening brace appears within
/// `max_scan_lines` of `from_line` (1-based). Used to attach region
/// directives to the function body that follows them. Returns nullopt when
/// no block opens in the window or the braces never close.
[[nodiscard]] std::optional<Region> next_brace_block(
    const SourceFile& source, std::size_t from_line,
    std::size_t max_scan_lines = 10);

}  // namespace rfidlint
