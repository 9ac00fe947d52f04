// CRC-framed segmented broadcast (corruption-resilient downlink).
//
// TPP's pre-order tree stream is differential: every segment's meaning
// depends on the register state left by the previous one, so a single
// flipped downlink bit silently mis-addresses every tag after the flip
// point. The framing layer restores per-segment error *detection*: a long
// broadcast payload is split into fixed-size segments, each wrapped as
//
//   SegmentFrame  <seq:4><payload:<=S><crc16:16>     = payload + 20 bits
//
// with CRC-16/CCITT computed over the packed <seq><payload> bits (MSB
// first, zero-padded to bytes). Tags discard a segment whose CRC fails and
// re-listen; the reader retransmits with bounded exponential backoff
// (sim::AirLoop::broadcast_framed, which charges the repeat airtime to
// obs::Phase::kRecovery). The 4-bit sequence number (mod 16) lets tags
// drop duplicate retransmissions of a segment they already accepted.
//
// The layer is OFF by default: with `enabled == false` no frame is ever
// built and broadcast accounting is bit-identical to the unframed path.
#pragma once

#include <cstdint>
#include <optional>

#include "common/bitvec.hpp"

namespace rfid::phy {

/// Bits of the <seq> header of every segment frame.
inline constexpr unsigned kSegmentSeqBits = 4;
/// Bits of the CRC-16 trailer of every segment frame.
inline constexpr unsigned kSegmentCrcBits = 16;
/// Total per-segment framing overhead in bits.
inline constexpr unsigned kSegmentOverheadBits =
    kSegmentSeqBits + kSegmentCrcBits;

/// Declarative framing policy for one session. Value type, copied with the
/// SessionConfig so parallel trials replay identically.
struct FramingConfig final {
  bool enabled = false;
  /// Maximum payload bits per segment (the last segment of a broadcast may
  /// be shorter). Smaller segments localize corruption but pay the 20-bit
  /// overhead more often.
  unsigned segment_payload_bits = 32;
  /// Retransmissions allowed per segment beyond the first attempt. A
  /// segment that is still corrupt after 1 + max_retransmissions attempts
  /// is undeliverable; the session reports the affected tags loudly.
  unsigned max_retransmissions = 8;
  /// Exponential backoff before retransmission k (1-based):
  /// min(backoff_base_us * 2^(k-1), backoff_cap_us).
  double backoff_base_us = 100.0;
  double backoff_cap_us = 3200.0;

  /// Number of segments a `payload_bits`-bit broadcast splits into.
  [[nodiscard]] std::size_t segment_count(
      std::size_t payload_bits) const noexcept {
    if (payload_bits == 0) return 0;
    return (payload_bits + segment_payload_bits - 1) / segment_payload_bits;
  }

  /// Framing overhead (header + CRC bits) for a `payload_bits` broadcast,
  /// first attempts only.
  [[nodiscard]] std::size_t overhead_bits(
      std::size_t payload_bits) const noexcept {
    return segment_count(payload_bits) * kSegmentOverheadBits;
  }

  /// Total first-attempt downlink bits for a `payload_bits` broadcast.
  [[nodiscard]] std::size_t framed_bits(
      std::size_t payload_bits) const noexcept {
    return payload_bits + overhead_bits(payload_bits);
  }

  /// Backoff delay before retransmission `attempt` (1-based).
  [[nodiscard]] double backoff_us(unsigned attempt) const noexcept;
};

/// One on-air segment: sequence number, payload slice, CRC-16 trailer.
struct SegmentFrame final {
  unsigned seq = 0;  ///< 4-bit sequence number, mod 16 within a broadcast
  BitVec payload;

  /// On-air length of this frame in bits.
  [[nodiscard]] std::size_t bits() const noexcept {
    return kSegmentOverheadBits + payload.size();
  }

  [[nodiscard]] BitVec encode() const;

  /// Validates the CRC trailer; nullopt on any mismatch (corruption).
  [[nodiscard]] static std::optional<SegmentFrame> decode(const BitVec& frame);
};

/// CRC-16/CCITT over the first `nbits` bits of `bits`, packed MSB-first
/// into bytes with the final byte zero-padded. Shared by encode/decode.
[[nodiscard]] std::uint16_t crc16_over_bits(const BitVec& bits,
                                            std::size_t nbits);

}  // namespace rfid::phy
