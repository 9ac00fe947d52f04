// The reader's air-interface loop: broadcasts, polls, replies, turn-arounds.
//
// One layer below sim::Session: the AirLoop owns every reader-tag
// interaction — reader broadcasts (unframed, or CRC-framed with the
// retransmission ladder of phy/framing.hpp), singleton polls, frame slots,
// presence slots — applying the C1G2 timing model, arbitrating the shared
// channel, drawing downlink and reply corruption fates, and classifying
// every failed poll (PollFailure) so protocols can choose between
// rescheduling, recovery parking, and loud abandonment. It is the one place
// that charges the clock: every bit and microsecond lands in the session's
// Metrics here, each charge named by an obs::Phase through add_phase. It
// mutates the session's Metrics, record and missing-id stores through
// references handed in by the composition root; its own state is the
// downlink corruption statistics behind estimated_ber(), the last-failure
// classification and the recovery-phase flag.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "air/channel.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "sim/session_types.hpp"
#include "tags/population.hpp"

namespace rfid::sim {

/// Why the last poll returned no tag. Protocols branch on this to decide
/// between rescheduling (the tag is awake and reachable), recovery parking,
/// and loud abandonment.
enum class PollFailure : std::uint8_t {
  kNone,               ///< last poll succeeded
  kAbsent,             ///< addressed tag is outside the field (timeout)
  kGarbledReply,       ///< uplink reply corrupted; tag stays awake
  kDownlinkCorrupted,  ///< unframed vector hit by BER; tag never addressed
  kDownlinkExhausted,  ///< framed vector undeliverable within retry budget
};

class AirLoop final {
 public:
  /// All references are borrowed from the owning session and must outlive
  /// the loop. `missing_ids` and `records` are the session's result stores;
  /// the loop appends to them under the same conditions Session always did.
  /// Every tag a poll is handed must belong to `population`, which
  /// supplies the recorded replies.
  AirLoop(const tags::TagPopulation& population, const SessionConfig& config,
          Xoshiro256ss& protocol_rng, air::Channel& channel,
          fault::FaultInjector& injector, Metrics& metrics,
          std::vector<CollectedRecord>& records,
          std::vector<TagId>& missing_ids) noexcept
      : population_(population),
        config_(config),
        protocol_rng_(protocol_rng),
        channel_(channel),
        injector_(injector),
        metrics_(metrics),
        records_(records),
        missing_ids_(missing_ids) {}

  // --- Reader broadcasts -----------------------------------------------------

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

  /// Downlink BER estimate inverted from the observed per-frame corruption
  /// rate (0 before any observation).
  [[nodiscard]] double estimated_ber() const noexcept;

  /// Downlink transmission attempts observed so far (framed attempts plus
  /// unframed BER draws); ADAPT's degradation monitor gates on it.
  [[nodiscard]] std::uint64_t downlink_attempts() const noexcept {
    return downlink_attempts_;
  }

  // --- Poll interactions ----------------------------------------------------

  /// True unless a `present` filter excludes `id` or the fault plan's churn
  /// schedule currently has it outside the field. Protocols that support
  /// churn re-evaluate this per poll rather than snapshotting it.
  [[nodiscard]] bool is_present(const TagId& id) const noexcept;

  /// One complete poll: QueryRep + `vector_bits` vector, turn-arounds, reply.
  /// `responders` are the tags whose tag-side predicate fired; `expected` is
  /// the reader's precomputed target. Returns the interrogated tag, or
  /// nullptr in two recoverable cases: the expected tag is configured
  /// absent (poll times out; tag recorded missing) or the reply was garbled
  /// by channel noise (airtime spent; tag stays awake — the caller must
  /// keep scheduling it). Protocols distinguish the two via the device's
  /// presence flag. Any other deviation from a singleton reply throws
  /// ProtocolError.
  const tags::Tag* poll(std::span<const tags::Tag* const> responders,
                        const tags::Tag* expected, std::size_t vector_bits);

  /// Why the most recent poll/poll_bare/poll_slot returned nullptr
  /// (kNone after a success). Valid until the next poll.
  [[nodiscard]] PollFailure last_poll_failure() const noexcept {
    return last_failure_;
  }

  /// Batched accounting for unframed singleton polls whose success is
  /// predetermined (sim::Session::clean_poll_fast_path), one entry of
  /// `vector_bits` per poll in dispatch order: h for each HPP poll, the
  /// tree-segment length for each TPP poll. Every entry is at most
  /// `index_length`, which is at most 30. Each length 0..index_length
  /// is priced once; the floating-point clock and phase totals are then
  /// replayed add-by-add in dispatch order — byte-identical to one
  /// successful poll() per entry — while the integer counters and channel
  /// statistics batch exactly.
  void clean_singleton_replies(std::span<const std::uint8_t> vector_bits,
                               unsigned index_length);

  /// Conventional-polling variant: bare broadcast without the QueryRep
  /// prefix (see phy::C1G2Timing::poll_bare_us).
  const tags::Tag* poll_bare(std::span<const tags::Tag* const> responders,
                             const tags::Tag* expected,
                             std::size_t vector_bits);

  /// A reply phase with no further reader vector (the vector or frame
  /// position was already transmitted): QueryRep + turn-arounds + reply.
  const tags::Tag* poll_slot(std::span<const tags::Tag* const> responders,
                             const tags::Tag* expected);

  /// A reply phase appended to an already-transmitted reader frame with no
  /// QueryRep of its own (coded polling's second responder).
  const tags::Tag* await_extra_reply(
      std::span<const tags::Tag* const> responders, const tags::Tag* expected);

  /// A poll the reader issues that no tag can answer (register
  /// desynchronized by an earlier unframed downlink corruption): the
  /// vector, QueryRep and both turn-arounds elapse, nothing decodes. The
  /// vector bits still count into w — the reader transmitted them.
  void poll_unanswered(std::size_t vector_bits);

  // --- Frame slots (ALOHA-family baselines) ---------------------------------

  /// A frame slot the reader expects to be empty (MIC's wasted slots).
  /// Throws ProtocolError if any tag answers. With `full_duration` the
  /// reader waits out the entire fixed-length slot (QueryRep, turn-arounds
  /// and the reply airtime) — the slotted-frame accounting under which the
  /// published MIC numbers reproduce; without it only the QueryRep and
  /// turn-arounds elapse (early empty-slot termination).
  void expect_empty_slot(std::span<const tags::Tag* const> responders,
                         bool full_duration = false);

  /// A frame slot whose outcome is not predetermined (classic framed-slotted
  /// ALOHA): empty, singleton (collected), or collision (airtime wasted).
  air::SlotResult frame_slot_aloha(
      std::span<const tags::Tag* const> responders);

  /// A 1-bit presence slot (missing-tag detection protocols): the reader
  /// only senses whether any energy was backscattered. Returns true when at
  /// least one tag replied; collisions are indistinguishable from single
  /// replies and equally useful. No payload is collected.
  bool presence_slot(std::span<const tags::Tag* const> responders);

  // --- Recovery-phase attribution -------------------------------------------

  /// While the flag is set every phase increment — vector, turn-around,
  /// reply, timeout — is attributed to obs::Phase::kRecovery and every poll
  /// counts as a retry; the clock itself advances exactly as it would
  /// outside a recovery phase. Toggled by the session on behalf of
  /// fault::RecoveryCoordinator::Scope; never nested.
  void set_in_recovery(bool value) noexcept { in_recovery_ = value; }
  [[nodiscard]] bool in_recovery() const noexcept { return in_recovery_; }

  /// Phase attribution honouring an open recovery phase: inside one, the
  /// whole increment lands in kRecovery regardless of `phase`.
  void add_phase(obs::Phase phase, double delta_us) noexcept {
    metrics_.phases.add(in_recovery_ ? obs::Phase::kRecovery : phase,
                        delta_us);
  }

  /// Builds and emits one trace event stamped with the current clock and
  /// round/circle counters. Callers must have applied the metric updates
  /// first and must guard on config().tracer themselves (keeps the disabled
  /// path to one branch). The event is marked `recovery` when `recovery`
  /// is set or a recovery phase is open, as its airtime then went whole to
  /// obs::Phase::kRecovery.
  void trace_event(obs::EventKind kind, double duration_us,
                   std::uint64_t vector_bits, std::uint64_t command_bits,
                   std::uint64_t tag_bits, double reader_us, double tag_us,
                   std::uint64_t detail = 0, bool recovery = false);

 private:
  const tags::Tag* complete_reply(
      std::span<const tags::Tag* const> responders, const tags::Tag* expected,
      double reader_time_us);

  /// Appends `tag`'s record: its ID and its info_bits-long reply.
  void record_reply(const tags::Tag& tag);

  /// Draws the BER fate of an unframed `vector_bits` downlink (false — and
  /// no draw — when BER is off), folding the observation into the
  /// estimated_ber statistics.
  [[nodiscard]] bool unframed_corrupts(std::size_t vector_bits);

  /// Accounting for a poll whose unframed vector was corrupted in flight:
  /// the addressed tag never decoded its index, so the reader waits out the
  /// turn-arounds in silence. Sets last_failure_ = kDownlinkCorrupted.
  void downlink_corrupt_timeout(double reader_time_us);

  const tags::TagPopulation& population_;
  const SessionConfig& config_;
  Xoshiro256ss& protocol_rng_;
  air::Channel& channel_;
  fault::FaultInjector& injector_;
  Metrics& metrics_;
  std::vector<CollectedRecord>& records_;
  std::vector<TagId>& missing_ids_;
  // Observed downlink corruption statistics feeding estimated_ber().
  std::uint64_t downlink_attempts_ = 0;
  std::uint64_t downlink_attempt_bits_ = 0;
  std::uint64_t downlink_failures_ = 0;
  bool in_recovery_ = false;
  PollFailure last_failure_ = PollFailure::kNone;
};

}  // namespace rfid::sim
