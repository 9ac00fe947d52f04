// Bit-level reader command codec.
//
// The protocols account reader overhead in bits (32-bit round init, 128-bit
// circle command); this module grounds those numbers in concrete frame
// layouts in the spirit of C1G2 signalling, with opcodes and CRC
// protection, and provides encode/decode round trips the tests verify.
// Layouts (MSB first):
//   QueryRound  <opcode:4><h:5><seed:18><crc5:5>                =  32 bits
//   CircleCmd   <opcode:4><f:30><F:30><seed:48><crc16:16>       = 128 bits
//   QueryRep    <opcode:4>                                      =   4 bits
// The seed fields carry truncated session seeds — tags only need them to
// agree with the reader, not to be globally unique.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bitvec.hpp"

namespace rfid::phy {

inline constexpr unsigned kOpcodeBits = 4;
inline constexpr std::uint8_t kOpQueryRep = 0x0;
inline constexpr std::uint8_t kOpQueryRound = 0x8;
inline constexpr std::uint8_t kOpCircle = 0x9;

/// <h, r>: starts an HPP/TPP inventory round. Encodes to exactly 32 bits —
/// the init overhead the paper's simulation setting assumes.
struct QueryRoundCommand final {
  unsigned index_length = 0;   ///< h, 0..31 (5 bits)
  std::uint32_t seed = 0;      ///< 18-bit truncated round seed

  static constexpr std::size_t kBits = 32;

  [[nodiscard]] BitVec encode() const;

  /// Encodes into `frame` (cleared first). Reusing one BitVec across rounds
  /// keeps the per-round encode/decode round-trip allocation-free.
  void encode_into(BitVec& frame) const;

  [[nodiscard]] static std::optional<QueryRoundCommand> decode(
      const BitVec& frame);
};

/// <f, F, r>: starts an EHPP circle. Encodes to exactly 128 bits — the l_c
/// of the paper's Section V-B setting.
struct CircleCommand final {
  std::uint32_t threshold = 0;   ///< f (30 bits)
  std::uint32_t modulus = 0;     ///< F (30 bits)
  std::uint64_t seed = 0;        ///< 48-bit truncated circle seed

  static constexpr std::size_t kBits = 128;

  [[nodiscard]] BitVec encode() const;
  [[nodiscard]] static std::optional<CircleCommand> decode(
      const BitVec& frame);
};

}  // namespace rfid::phy
