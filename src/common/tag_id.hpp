// 96-bit EPC tag identifiers.
//
// C1G2 EPCs are 96 bits; the paper's whole premise is that broadcasting those
// 96 bits per poll is wasteful. We model the ID exactly (three 32-bit words,
// most-significant word first) so that prefix-based baselines (Prefix-CPP)
// and the coded-polling XOR trick operate on realistic bit layouts.
#pragma once

#include <array>
#include <compare>
#include <cstdint>
#include <set>
#include <string>

namespace rfid {

/// Number of bits in an EPC-96 tag identifier.
inline constexpr std::size_t kTagIdBits = 96;

/// A 96-bit tag ID stored as three 32-bit words, word 0 most significant.
struct TagId final {
  std::array<std::uint32_t, 3> words{};

  friend constexpr auto operator<=>(const TagId&, const TagId&) = default;

  /// Bit at position `pos` counted from the most-significant bit (pos 0).
  [[nodiscard]] constexpr bool bit(std::size_t pos) const noexcept {
    const std::size_t word = pos / 32;
    const std::size_t offset = 31 - (pos % 32);
    return (words[word] >> offset) & 1u;
  }

  /// Sets bit `pos` (MSB-first numbering) to `value`.
  constexpr void set_bit(std::size_t pos, bool value) noexcept {
    const std::size_t word = pos / 32;
    const std::uint32_t mask = 1u << (31 - (pos % 32));
    if (value)
      words[word] |= mask;
    else
      words[word] &= ~mask;
  }

  /// XOR of two IDs; used by the coded-polling baseline.
  [[nodiscard]] constexpr TagId operator^(const TagId& other) const noexcept {
    TagId out;
    for (std::size_t i = 0; i < 3; ++i)
      out.words[i] = words[i] ^ other.words[i];
    return out;
  }

  /// 24-hex-digit canonical rendering (EPC style).
  [[nodiscard]] std::string to_hex() const;

  /// Parses a 24-hex-digit string; throws std::invalid_argument otherwise.
  [[nodiscard]] static TagId from_hex(const std::string& hex);

  /// Folds the 96 bits into a 64-bit value for hashing.
  [[nodiscard]] constexpr std::uint64_t fold64() const noexcept {
    const auto hi = (static_cast<std::uint64_t>(words[0]) << 32) | words[1];
    return hi ^ (static_cast<std::uint64_t>(words[2]) * 0x9e3779b97f4a7c15ULL);
  }
};

/// std::hash-compatible functor for containers keyed by TagId.
struct TagIdHash final {
  [[nodiscard]] std::size_t operator()(const TagId& id) const noexcept {
    return static_cast<std::size_t>(id.fold64());
  }
};

/// The house container for sets of tag IDs that cross an API boundary.
/// Ordered on purpose: iteration order is the ID order, so anything derived
/// from walking the set (reports, metrics, RNG-consuming loops) is
/// deterministic by construction — the property tools/rfidlint's
/// unordered-container rules enforce. For membership checks against a tag
/// vector (population uniqueness, run verification), use tags::IdIndex: a
/// flat table of positions into the vector, with no iteration API.
using TagIdSet = std::set<TagId>;

}  // namespace rfid
