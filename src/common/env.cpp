#include "common/env.hpp"

#include <charconv>
#include <cstdlib>
#include <limits>
#include <system_error>

namespace rfid {

std::uint64_t env_u64(const std::string& name, std::uint64_t fallback) {
  const char* raw = std::getenv(name.c_str());
  if (raw == nullptr || *raw == '\0') return fallback;
  const auto parsed = parse_u64(raw);
  return parsed.value_or(fallback);
}

std::optional<std::uint64_t> parse_u64(std::string_view text) noexcept {
  if (text.empty()) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;  // sign/space/garbage
    const auto digit = static_cast<std::uint64_t>(c - '0');
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
      return std::nullopt;  // would overflow
    value = value * 10 + digit;
  }
  return value;
}

std::optional<std::size_t> parse_size_arg(std::string_view text,
                                          bool allow_zero) noexcept {
  const auto parsed = parse_u64(text);
  if (!parsed) return std::nullopt;
  if (*parsed == 0 && !allow_zero) return std::nullopt;
  if (*parsed > std::numeric_limits<std::size_t>::max()) return std::nullopt;
  return static_cast<std::size_t>(*parsed);
}

std::optional<double> parse_fraction_arg(std::string_view text) noexcept {
  bool dot = false;
  for (const char c : text) {
    if (c == '.' && !dot) {
      dot = true;
    } else if (c < '0' || c > '9') {
      return std::nullopt;  // sign, exponent, space, garbage or a 2nd '.'
    }
  }
  // from_chars rejects "" and "." itself, and reports overflow and
  // underflow to zero as out of range.
  double value = 0.0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] =
      std::from_chars(text.data(), end, value, std::chars_format::fixed);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace rfid
