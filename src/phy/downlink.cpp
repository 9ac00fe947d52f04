#include "phy/downlink.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace rfid::phy {

void Downlink::broadcast_vector_bits(std::size_t bits) {
  const double dt = timing_.reader_tx_us(bits);
  sink_.on_reader_payload_bits(bits, /*count_in_w=*/true);
  sink_.on_clock_advance(dt);
  sink_.on_phase(obs::Phase::kReaderVector, dt);
  if (sink_.tracing())
    sink_.on_trace(obs::EventKind::kReaderBroadcast, dt, bits, 0, 0, dt, 0.0,
                   0, /*recovery=*/false);
}

void Downlink::broadcast_command_bits(std::size_t bits) {
  const double dt = timing_.reader_tx_us(bits);
  sink_.on_reader_payload_bits(bits, /*count_in_w=*/false);
  sink_.on_clock_advance(dt);
  sink_.on_phase(obs::Phase::kCommand, dt);
  if (sink_.tracing())
    sink_.on_trace(obs::EventKind::kReaderBroadcast, dt, 0, bits, 0, dt, 0.0,
                   0, /*recovery=*/false);
}

bool Downlink::unframed_corrupts(std::size_t vector_bits) {
  if (vector_bits == 0 || !injector_.ber_active()) return false;
  ++attempts_;
  attempt_bits_ += vector_bits;
  if (!injector_.corrupt_downlink(vector_bits)) return false;
  ++failures_;
  return true;
}

bool Downlink::broadcast_framed(std::size_t payload_bits, bool count_in_w) {
  RFID_EXPECTS(framing_.enabled);
  RFID_EXPECTS(framing_.segment_payload_bits >= 1);
  const unsigned max_attempts = 1 + framing_.max_retransmissions;
  std::size_t remaining = payload_bits;
  std::uint64_t seq = 0;
  while (remaining > 0) {
    const std::size_t seg =
        std::min<std::size_t>(remaining, framing_.segment_payload_bits);
    const std::size_t frame_bits = seg + kSegmentOverheadBits;
    bool delivered = false;
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
      if (attempt == 1) {
        // First attempt: payload accounted as the unframed broadcast would
        // have been, the <seq><crc16> wrapper as command overhead.
        const double dt = timing_.reader_tx_us(frame_bits);
        const double payload_us = timing_.reader_tx_us(seg);
        sink_.on_reader_payload_bits(seg, count_in_w);
        sink_.on_framing_overhead_bits(kSegmentOverheadBits);
        sink_.on_segment_sent();
        sink_.on_clock_advance(dt);
        sink_.on_phase(
            count_in_w ? obs::Phase::kReaderVector : obs::Phase::kCommand,
            payload_us);
        sink_.on_phase(obs::Phase::kCommand, dt - payload_us);
        if (sink_.tracing())
          sink_.on_trace(obs::EventKind::kReaderBroadcast, dt,
                         count_in_w ? seg : 0,
                         (count_in_w ? 0 : seg) + kSegmentOverheadBits, 0, dt,
                         0.0, seq, /*recovery=*/false);
      } else {
        // Retransmission: exponential backoff, then the whole frame again.
        // Everything here is corruption-recovery cost — bits land in
        // command/framing overhead, time in obs::Phase::kRecovery.
        const double tx_us = timing_.reader_tx_us(frame_bits);
        const double dt = framing_.backoff_us(attempt - 1) + tx_us;
        sink_.on_framing_overhead_bits(frame_bits);
        sink_.on_segment_retransmitted();
        sink_.on_clock_advance(dt);
        sink_.on_phase(obs::Phase::kRecovery, dt);
        if (sink_.tracing())
          sink_.on_trace(obs::EventKind::kReaderBroadcast, dt, 0, frame_bits,
                         0, tx_us, 0.0, seq, /*recovery=*/true);
      }
      ++attempts_;
      attempt_bits_ += frame_bits;
      if (!injector_.corrupt_downlink(frame_bits)) {
        delivered = true;
        break;
      }
      ++failures_;
      sink_.on_segment_corrupted();
      // The reader learns of the CRC failure from the tags' NACK burst in
      // the T1 listen window that follows every segment of a corrupted
      // frame; recovery cost, like the retransmission it triggers.
      const double listen_us = timing_.t1_us;
      sink_.on_clock_advance(listen_us);
      sink_.on_phase(obs::Phase::kRecovery, listen_us);
      if (sink_.tracing())
        sink_.on_trace(obs::EventKind::kSegmentCorrupted, listen_us, 0, 0, 0,
                       0.0, 0.0, seq, /*recovery=*/true);
    }
    if (!delivered) return false;
    remaining -= seg;
    seq = (seq + 1) & 0xF;
  }
  return true;
}

double Downlink::estimated_ber() const noexcept {
  if (attempts_ == 0 || failures_ == 0) return 0.0;
  const double p_corrupt =
      static_cast<double>(failures_) / static_cast<double>(attempts_);
  const double avg_bits =
      static_cast<double>(attempt_bits_) / static_cast<double>(attempts_);
  if (p_corrupt >= 1.0) return 1.0;
  // Invert P(frame corrupt) = 1 - (1 - ber)^bits at the mean frame length.
  return 1.0 - std::pow(1.0 - p_corrupt, 1.0 / avg_bits);
}

}  // namespace rfid::phy
