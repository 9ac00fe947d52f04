// Reader-to-tag downlink: broadcast accounting, BER fate draws, and the
// CRC-framed retransmission ladder.
//
// The Downlink owns everything about getting reader bits onto the air — the
// unframed fast path, the segmented CRC-16 framing with bounded exponential
// backoff (see phy/framing.hpp), and the corruption statistics behind
// estimated_ber(). It knows nothing about polls, tags, or protocol rounds:
// corruption fate comes from the fault::FaultInjector it consumes, and every
// bit and microsecond it spends is reported through the narrow AirtimeSink
// interface the owning session implements. That keeps the accounting
// discipline in exactly one place (the sink) while the transmission policy —
// what travels framed, how retransmissions back off, when a payload is
// declared undeliverable — lives here.
#pragma once

#include <cstddef>
#include <cstdint>

#include "fault/injector.hpp"
#include "obs/phase_timer.hpp"
#include "obs/trace.hpp"
#include "phy/c1g2.hpp"
#include "phy/framing.hpp"

namespace rfid::phy {

/// Accounting surface the Downlink reports through. Implemented by
/// sim::Session; each method mirrors one primitive metric mutation so the
/// downlink's sequence of updates is byte-identical to the pre-split code.
/// Phase attribution goes through the sink because only the session knows
/// whether a recovery scope is open (which redirects phases to kRecovery).
class AirtimeSink {
 public:
  /// Reader payload bits: counted into the paper's w when `count_in_w`,
  /// else into the command bucket.
  virtual void on_reader_payload_bits(std::uint64_t bits, bool count_in_w) = 0;
  /// Framing bits beyond the raw payload (segment headers/CRCs and whole
  /// retransmitted frames): command bucket + framing-overhead accounting.
  virtual void on_framing_overhead_bits(std::uint64_t bits) = 0;
  virtual void on_segment_sent() = 0;
  virtual void on_segment_retransmitted() = 0;
  virtual void on_segment_corrupted() = 0;
  /// Advances the session clock by `dt_us` (no phase attribution).
  virtual void on_clock_advance(double dt_us) = 0;
  /// Attributes `dt_us` to `phase`, honouring an open recovery scope.
  virtual void on_phase(obs::Phase phase, double dt_us) = 0;
  /// True when a trace sink is attached (keeps the disabled path to one
  /// branch).
  [[nodiscard]] virtual bool tracing() const = 0;
  /// Emits one trace event stamped by the sink with clock/round counters.
  /// `recovery` marks airtime charged to obs::Phase::kRecovery here
  /// (retransmissions and NACK windows); the sink adds an open recovery
  /// scope.
  virtual void on_trace(obs::EventKind kind, double duration_us,
                        std::uint64_t vector_bits, std::uint64_t command_bits,
                        std::uint64_t tag_bits, double reader_us,
                        double tag_us, std::uint64_t detail,
                        bool recovery) = 0;

 protected:
  ~AirtimeSink() = default;
};

class Downlink final {
 public:
  /// All references are borrowed and must outlive the Downlink; the session
  /// composition root owns them all.
  Downlink(const C1G2Timing& timing, const FramingConfig& framing,
           fault::FaultInjector& injector, AirtimeSink& sink) noexcept
      : timing_(timing), framing_(framing), injector_(injector), sink_(sink) {}

  [[nodiscard]] bool framing_enabled() const noexcept {
    return framing_.enabled;
  }

  /// Broadcasts `bits` reader bits that the paper counts into w.
  void broadcast_vector_bits(std::size_t bits);

  /// Broadcasts `bits` reader bits outside the w accounting (round/circle
  /// initialization, framing fields).
  void broadcast_command_bits(std::size_t bits);

  /// Pushes `payload_bits` through the CRC-framed segmented downlink:
  /// splits into segments of at most framing.segment_payload_bits, wraps
  /// each in the 20-bit <seq><crc16> frame, and retransmits corrupted
  /// segments with exponential backoff up to framing.max_retransmissions
  /// times. First-attempt payload bits are counted into vector_bits when
  /// `count_in_w` (else command_bits); all framing overhead and every
  /// retransmission land in command_bits + framing_overhead_bits, with
  /// retransmission airtime charged to obs::Phase::kRecovery. Returns false
  /// when any segment stayed corrupt through its whole attempt budget — the
  /// payload was NOT delivered and the caller must handle the affected tags
  /// loudly (recovery parking or mark_undelivered).
  [[nodiscard]] bool broadcast_framed(std::size_t payload_bits,
                                      bool count_in_w);

  /// Draws the BER fate of an unframed `vector_bits` downlink (false — and
  /// no draw — when BER is off), folding the observation into the
  /// estimated_ber statistics.
  [[nodiscard]] bool unframed_corrupts(std::size_t vector_bits);

  /// Downlink BER estimate inverted from the observed per-frame corruption
  /// rate (0 before any observation).
  [[nodiscard]] double estimated_ber() const noexcept;

  /// Downlink transmission attempts observed so far (framed attempts plus
  /// unframed BER draws); ADAPT's degradation monitor gates on it.
  [[nodiscard]] std::uint64_t attempts() const noexcept { return attempts_; }

 private:
  const C1G2Timing& timing_;
  const FramingConfig& framing_;
  fault::FaultInjector& injector_;
  AirtimeSink& sink_;
  // Observed downlink corruption statistics feeding estimated_ber().
  std::uint64_t attempts_ = 0;
  std::uint64_t attempt_bits_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace rfid::phy
