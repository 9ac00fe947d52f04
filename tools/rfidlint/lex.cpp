#include "lex.hpp"

#include <algorithm>
#include <cctype>

namespace rfidlint {

bool is_word(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

bool word_at(std::string_view text, std::size_t pos, std::string_view word) {
  if (pos + word.size() > text.size()) return false;
  if (text.substr(pos, word.size()) != word) return false;
  if (pos > 0 && is_word(text[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  return end == text.size() || !is_word(text[end]);
}

std::size_t find_word(std::string_view text, std::string_view word,
                      std::size_t from) {
  for (std::size_t pos = text.find(word, from); pos != std::string_view::npos;
       pos = text.find(word, pos + 1)) {
    if (word_at(text, pos, word)) return pos;
  }
  return std::string_view::npos;
}

std::size_t skip_spaces(std::string_view text, std::size_t pos) {
  while (pos < text.size() &&
         std::isspace(static_cast<unsigned char>(text[pos])) != 0)
    ++pos;
  return pos;
}

std::size_t rskip_spaces(std::string_view text, std::size_t pos) {
  while (pos > 0) {
    --pos;
    if (std::isspace(static_cast<unsigned char>(text[pos])) == 0) return pos;
  }
  return std::string_view::npos;
}

SplitLine LineSplitter::split(std::string_view line) {
  SplitLine out;
  out.code.assign(line.size(), ' ');
  std::size_t i = 0;

  // A preprocessor directive has no lintable code; its comment part can
  // still carry a pragma, so comments are extracted as usual. (The layer
  // analyzer reads #include targets off the raw line, not the code part.)
  if (!in_block_comment_ && !in_raw_string_) {
    const std::size_t first = skip_spaces(line, 0);
    if (first < line.size() && line[first] == '#') {
      const std::size_t slash = line.find("//", first);
      if (slash != std::string_view::npos)
        out.comment.assign(line.substr(slash + 2));
      return out;
    }
  }

  while (i < line.size()) {
    if (in_block_comment_) {
      const std::size_t end = line.find("*/", i);
      if (end == std::string_view::npos) {
        out.comment += line.substr(i);
        return out;
      }
      out.comment += line.substr(i, end - i);
      in_block_comment_ = false;
      i = end + 2;
      continue;
    }
    if (in_raw_string_) {
      const std::string closer = ")" + raw_delimiter_ + "\"";
      const std::size_t end = line.find(closer, i);
      if (end == std::string_view::npos) return out;
      in_raw_string_ = false;
      i = end + closer.size();
      continue;
    }
    const char c = line[i];
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') {
      out.comment += line.substr(i + 2);
      return out;
    }
    if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
      in_block_comment_ = true;
      i += 2;
      continue;
    }
    if (c == 'R' && i + 1 < line.size() && line[i + 1] == '"' &&
        (i == 0 || !is_word(line[i - 1]))) {
      const std::size_t open = line.find('(', i + 2);
      if (open != std::string_view::npos) {
        raw_delimiter_.assign(line.substr(i + 2, open - (i + 2)));
        in_raw_string_ = true;
        i = open + 1;
        continue;
      }
    }
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < line.size()) {
        if (line[i] == '\\') {
          i += 2;
          continue;
        }
        if (line[i] == quote) {
          ++i;
          break;
        }
        ++i;
      }
      continue;
    }
    out.code[i] = c;
    ++i;
  }
  return out;
}

namespace {

/// Trims leading/trailing spaces in place.
void trim(std::string& s) {
  while (!s.empty() && s.front() == ' ') s.erase(s.begin());
  while (!s.empty() && s.back() == ' ') s.pop_back();
}

/// Parses one directive starting right after its `rfidlint:` marker.
[[nodiscard]] Directive parse_one(std::string_view comment, std::size_t pos,
                                  std::size_t line) {
  Directive directive;
  directive.line = line;

  // Directive verb: a run of word characters and hyphens.
  std::size_t i = skip_spaces(comment, pos);
  const std::size_t verb_begin = i;
  while (i < comment.size() && (is_word(comment[i]) || comment[i] == '-'))
    ++i;
  const std::string verb(comment.substr(verb_begin, i - verb_begin));

  const bool is_allow = verb == "allow";
  const bool is_region = verb == "hotpath" || verb == "rng-position-pure";
  if (!is_allow && !is_region) {
    directive.problem = verb.empty()
                            ? "missing directive verb"
                            : "unknown directive '" + verb + "'";
    return directive;
  }

  i = skip_spaces(comment, i);
  if (i >= comment.size() || comment[i] != '(') {
    directive.problem = "expected '(' after '" + verb + "'";
    return directive;
  }
  const std::size_t close = comment.find(')', i);
  if (close == std::string_view::npos) {
    directive.problem = "unterminated '(' after '" + verb + "'";
    return directive;
  }
  directive.argument.assign(comment.substr(i + 1, close - i - 1));
  trim(directive.argument);
  if (directive.argument.empty()) {
    directive.problem = "'" + verb + "' needs a non-empty argument";
    return directive;
  }

  if (is_allow) {
    directive.kind = Directive::Kind::kAllow;
    // A reason is any word character after the closing paren (separators
    // like "—" / "-" / ":" alone do not count).
    for (std::size_t r = close + 1; r < comment.size(); ++r) {
      if (is_word(comment[r])) {
        directive.has_reason = true;
        break;
      }
    }
  } else {
    directive.kind = verb == "hotpath" ? Directive::Kind::kHotpath
                                       : Directive::Kind::kRngPositionPure;
  }
  return directive;
}

}  // namespace

std::vector<Directive> parse_directives(std::string_view comment,
                                        std::size_t line) {
  std::vector<Directive> directives;
  // A directive is anchored: the prefix must be the first non-space
  // content of the comment. Prose that merely *mentions* a pragma
  // spelling mid-sentence (fixture headers, docs) is not a directive.
  constexpr std::string_view kPrefix = "rfidlint:";
  const std::size_t start = skip_spaces(comment, 0);
  if (comment.substr(start, kPrefix.size()) == kPrefix)
    directives.push_back(parse_one(comment, start + kPrefix.size(), line));
  return directives;
}

SourceFile::SourceFile(std::string path, std::string_view content)
    : path_(std::move(path)) {
  LineSplitter splitter;
  std::size_t start = 0;
  while (start <= content.size()) {
    const std::size_t end = content.find('\n', start);
    const std::string_view line =
        content.substr(start, end == std::string_view::npos
                                  ? std::string_view::npos
                                  : end - start);
    raw_.emplace_back(line);
    lines_.push_back(splitter.split(line));
    if (end == std::string_view::npos) break;
    start = end + 1;
  }
  for (std::size_t i = 0; i < lines_.size(); ++i) {
    if (lines_[i].comment.empty()) continue;
    for (Directive& directive : parse_directives(lines_[i].comment, i + 1))
      directives_.push_back(std::move(directive));
  }
}

bool SourceFile::code_empty(std::size_t i) const {
  const std::string& code = lines_[i].code;
  return std::all_of(code.begin(), code.end(), [](char c) {
    return std::isspace(static_cast<unsigned char>(c)) != 0;
  });
}

std::optional<Region> next_brace_block(const SourceFile& source,
                                       std::size_t from_line,
                                       std::size_t max_scan_lines) {
  const std::size_t first = from_line == 0 ? 0 : from_line - 1;
  const std::size_t scan_limit =
      std::min(source.line_count(), first + max_scan_lines + 1);
  int depth = 0;
  Region region;
  for (std::size_t i = first; i < source.line_count(); ++i) {
    if (region.begin_line == 0 && i >= scan_limit) return std::nullopt;
    const std::string_view code = source.code(i);
    for (const char c : code) {
      if (c == '{') {
        if (depth == 0) region.begin_line = i + 1;
        ++depth;
      } else if (c == '}') {
        if (depth > 0 && --depth == 0) {
          region.end_line = i + 1;
          return region;
        }
      }
    }
  }
  return std::nullopt;
}

}  // namespace rfidlint
