// Session-level accounting.
//
// The paper reports two quantities per protocol: the average polling-vector
// length w (bits the reader spends to single out one tag) and the execution
// time. Metrics separates reader bits into two buckets so both can be
// derived from one run:
//   * vector_bits  — bits the paper counts into w (per-poll vectors; for
//                    EHPP also the circle command and per-round init, per
//                    Section V-B's explicit statement)
//   * command_bits — reader bits outside the w accounting (HPP/TPP round
//                    initialization, CRC fields of coded polling, ...)
// Time always accumulates everything actually transmitted.
// A third derived view, the per-phase time split (where did the microseconds
// go: vector transmission, commands, turn-arounds, tag replies, wasted
// slots), lives in `phases` — see obs/phase_timer.hpp for the taxonomy and
// docs/observability.md for the partition identity.
//
// The struct lives in the obs layer (it is pure accounting over the phase
// taxonomy) so both the simulation stack above and the streaming telemetry
// path (obs/stream.hpp) can fold it; sim/session_types.hpp re-exports it
// as sim::Metrics for the rest of the simulator.
#pragma once

#include <cstdint>

#include "obs/phase_timer.hpp"

namespace rfid::obs {

struct Metrics final {
  std::uint64_t polls = 0;    ///< successful singleton interrogations
  std::uint64_t missing = 0;    ///< polls that timed out on an absent tag
  std::uint64_t corrupted = 0;  ///< replies garbled by channel noise
  std::uint64_t retries = 0;  ///< recovery re-polls issued (fault layer)
  std::uint64_t undelivered = 0;  ///< tags abandoned after budget exhaustion
  std::uint64_t rounds = 0;   ///< inventory rounds (HPP/TPP) or frames
  std::uint64_t circles = 0;  ///< EHPP subset-query circles

  std::uint64_t slots_total = 0;   ///< frame slots walked (ALOHA family)
  std::uint64_t slots_useful = 0;  ///< slots that yielded a reply
  std::uint64_t slots_wasted = 0;  ///< empty/collision slots

  std::uint64_t vector_bits = 0;   ///< reader bits counted into w
  std::uint64_t command_bits = 0;  ///< reader bits outside w
  std::uint64_t tag_bits = 0;      ///< bits transmitted by tags

  // Corruption-resilient broadcast accounting (fault layer; all zero and
  // absent from reports when framing and BER are off).
  std::uint64_t segments_sent = 0;  ///< framed segments, first attempts only
  std::uint64_t segments_corrupted = 0;  ///< segment attempts that failed CRC
  std::uint64_t segments_retransmitted = 0;  ///< retransmission attempts
  std::uint64_t downlink_corrupted = 0;  ///< unframed broadcasts hit by BER
  std::uint64_t degradations = 0;  ///< adaptive protocol-tier downgrades

  // Reader-level fault accounting (fleet supervisor; see
  // fault/supervisor.hpp). All zero — and absent from reports — outside
  // supervised fleet runs with reader faults enabled.
  std::uint64_t reader_crashes = 0;   ///< readers lost mid-run (crash faults)
  std::uint64_t reader_stalls = 0;    ///< stall/latency-spike faults applied
  std::uint64_t reader_restarts = 0;  ///< supervisor-driven restarts
  std::uint64_t handoffs = 0;  ///< tags rehomed away from a downed reader
  /// Downlink bits framing added beyond the raw payload: header + CRC of
  /// every attempt plus the whole frame of each retransmission. Subset of
  /// command_bits; the bench's overhead-vs-Eq.16 figure is this per tag.
  std::uint64_t framing_overhead_bits = 0;

  double time_us = 0.0;  ///< wall-clock time under the C1G2 model

  /// time_us attributed by air-interface phase; the entries partition the
  /// clock up to floating-point association (~1e-9 relative).
  PhaseBreakdown phases{};

  /// Average polling-vector length: w-counted bits per interrogated tag.
  [[nodiscard]] double avg_vector_bits() const noexcept {
    return polls == 0 ? 0.0
                      : static_cast<double>(vector_bits) /
                            static_cast<double>(polls);
  }

  [[nodiscard]] double exec_time_s() const noexcept { return time_us * 1e-6; }

  /// Fraction of frame slots that produced no reply (ALOHA family metric).
  [[nodiscard]] double waste_fraction() const noexcept {
    return slots_total == 0 ? 0.0
                            : static_cast<double>(slots_wasted) /
                                  static_cast<double>(slots_total);
  }

  void merge(const Metrics& other) noexcept;
};

}  // namespace rfid::obs
