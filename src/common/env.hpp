// Environment-variable and numeric-argument helpers shared by the bench and
// example binaries.
//
// Benches honour RFID_RUNS (Monte-Carlo repetitions) and RFID_MAX_N
// (largest population) so CI machines can trade fidelity for speed without
// editing code. parse_u64/parse_size_arg/parse_fraction_arg give the
// examples and tools one strict argv-number parser each instead of
// per-binary strtoull/strtod calls that silently accepted "10x", "abc",
// overflow, or a degenerate n = 0.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace rfid {

/// Reads an unsigned integer from the environment; returns `fallback` when
/// the variable is unset or unparsable.
[[nodiscard]] std::uint64_t env_u64(const std::string& name,
                                    std::uint64_t fallback);

/// Strictly parses a base-10 unsigned integer: the entire string must be
/// digits (no sign, no whitespace, no trailing garbage) and the value must
/// fit in 64 bits. Returns nullopt otherwise.
[[nodiscard]] std::optional<std::uint64_t> parse_u64(
    std::string_view text) noexcept;

/// Command-line size-argument parser for the examples: strict like
/// parse_u64, and additionally rejects 0 unless `allow_zero` — a population
/// or trial count of zero is always a typo, and silently running a
/// degenerate simulation helps nobody. Returns nullopt on any rejection;
/// callers print their own usage message.
[[nodiscard]] std::optional<std::size_t> parse_size_arg(
    std::string_view text, bool allow_zero = false) noexcept;

/// Strictly parses a non-negative decimal: digits with at most one '.' and
/// at least one digit, no sign, exponent or whitespace (parse_size_arg's
/// policy, extended to rate and fraction flags). Also rejects a value that
/// std::from_chars reports as out of range, such as a 400-digit integer
/// part or a fraction that underflows to zero. Callers check their own
/// bounds.
[[nodiscard]] std::optional<double> parse_fraction_arg(
    std::string_view text) noexcept;

}  // namespace rfid
