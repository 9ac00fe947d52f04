#include "sim/air_loop.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <string>

#include "common/error.hpp"
#include "phy/framing.hpp"

namespace rfid::sim {

namespace {
/// Longest vector a batched clean poll may carry (the round engine's index
/// length never exceeds it).
constexpr unsigned kMaxCleanVectorBits = 30;
}  // namespace

// Accounting discipline: every site computes its clock increment as a named
// `dt` built from the exact expression the metrics always used (evaluation
// order preserved, so seeded runs are byte-identical to the pre-tracing
// code), adds it once to metrics_.time_us, splits it across phases, and —
// only behind a branch on the null tracer pointer — emits one trace event
// whose duration_us is that same double. A trace therefore replays into the
// Metrics totals exactly (see docs/observability.md).

void AirLoop::trace_event(obs::EventKind kind, double duration_us,
                          std::uint64_t vector_bits,
                          std::uint64_t command_bits, std::uint64_t tag_bits,
                          double reader_us, double tag_us,
                          std::uint64_t detail, bool recovery) {
  obs::Event event;
  event.kind = kind;
  event.round = metrics_.rounds;
  event.circle = metrics_.circles;
  event.vector_bits = vector_bits;
  event.command_bits = command_bits;
  event.tag_bits = tag_bits;
  event.time_us = metrics_.time_us;
  event.duration_us = duration_us;
  event.reader_us = reader_us;
  event.tag_us = tag_us;
  event.detail = detail;
  event.recovery = recovery || in_recovery_;
  config_.tracer->on_event(event);
}

void AirLoop::broadcast_vector_bits(std::size_t bits) {
  const double dt = config_.timing.reader_tx_us(bits);
  metrics_.vector_bits += bits;
  metrics_.time_us += dt;
  add_phase(obs::Phase::kReaderVector, dt);
  if (config_.tracer != nullptr)
    trace_event(obs::EventKind::kReaderBroadcast, dt, bits, 0, 0, dt, 0.0);
}

void AirLoop::broadcast_command_bits(std::size_t bits) {
  const double dt = config_.timing.reader_tx_us(bits);
  metrics_.command_bits += bits;
  metrics_.time_us += dt;
  add_phase(obs::Phase::kCommand, dt);
  if (config_.tracer != nullptr)
    trace_event(obs::EventKind::kReaderBroadcast, dt, 0, bits, 0, dt, 0.0);
}

bool AirLoop::unframed_corrupts(std::size_t vector_bits) {
  if (vector_bits == 0 || !injector_.ber_active()) return false;
  ++downlink_attempts_;
  downlink_attempt_bits_ += vector_bits;
  if (!injector_.corrupt_downlink(vector_bits)) return false;
  ++downlink_failures_;
  return true;
}

bool AirLoop::broadcast_framed(std::size_t payload_bits, bool count_in_w) {
  const phy::FramingConfig& framing = config_.framing;
  RFID_EXPECTS(framing.enabled);
  RFID_EXPECTS(framing.segment_payload_bits >= 1);
  const unsigned max_attempts = 1 + framing.max_retransmissions;
  std::size_t remaining = payload_bits;
  std::uint64_t seq = 0;
  while (remaining > 0) {
    const std::size_t seg =
        std::min<std::size_t>(remaining, framing.segment_payload_bits);
    const std::size_t frame_bits = seg + phy::kSegmentOverheadBits;
    bool delivered = false;
    for (unsigned attempt = 1; attempt <= max_attempts; ++attempt) {
      if (attempt == 1) {
        // First attempt: payload accounted as the unframed broadcast would
        // have been, the <seq><crc16> wrapper as command overhead.
        const double dt = config_.timing.reader_tx_us(frame_bits);
        const double payload_us = config_.timing.reader_tx_us(seg);
        (count_in_w ? metrics_.vector_bits : metrics_.command_bits) += seg;
        metrics_.command_bits += phy::kSegmentOverheadBits;
        metrics_.framing_overhead_bits += phy::kSegmentOverheadBits;
        ++metrics_.segments_sent;
        metrics_.time_us += dt;
        add_phase(count_in_w ? obs::Phase::kReaderVector : obs::Phase::kCommand,
                  payload_us);
        add_phase(obs::Phase::kCommand, dt - payload_us);
        if (config_.tracer != nullptr)
          trace_event(obs::EventKind::kReaderBroadcast, dt,
                      count_in_w ? seg : 0,
                      (count_in_w ? 0 : seg) + phy::kSegmentOverheadBits, 0,
                      dt, 0.0, seq);
      } else {
        // Retransmission: exponential backoff, then the whole frame again.
        // Everything here is corruption-recovery cost — bits land in
        // command/framing overhead, time in obs::Phase::kRecovery.
        const double tx_us = config_.timing.reader_tx_us(frame_bits);
        const double dt = framing.backoff_us(attempt - 1) + tx_us;
        metrics_.command_bits += frame_bits;
        metrics_.framing_overhead_bits += frame_bits;
        ++metrics_.segments_retransmitted;
        metrics_.time_us += dt;
        add_phase(obs::Phase::kRecovery, dt);
        if (config_.tracer != nullptr)
          trace_event(obs::EventKind::kReaderBroadcast, dt, 0, frame_bits, 0,
                      tx_us, 0.0, seq, /*recovery=*/true);
      }
      ++downlink_attempts_;
      downlink_attempt_bits_ += frame_bits;
      if (!injector_.corrupt_downlink(frame_bits)) {
        delivered = true;
        break;
      }
      ++downlink_failures_;
      ++metrics_.segments_corrupted;
      // The reader learns of the CRC failure from the tags' NACK burst in
      // the T1 listen window that follows every segment of a corrupted
      // frame; recovery cost, like the retransmission it triggers.
      const double listen_us = config_.timing.t1_us;
      metrics_.time_us += listen_us;
      add_phase(obs::Phase::kRecovery, listen_us);
      if (config_.tracer != nullptr)
        trace_event(obs::EventKind::kSegmentCorrupted, listen_us, 0, 0, 0, 0.0,
                    0.0, seq, /*recovery=*/true);
    }
    if (!delivered) return false;
    remaining -= seg;
    seq = (seq + 1) & 0xF;
  }
  return true;
}

double AirLoop::estimated_ber() const noexcept {
  if (downlink_attempts_ == 0 || downlink_failures_ == 0) return 0.0;
  const double p_corrupt = static_cast<double>(downlink_failures_) /
                           static_cast<double>(downlink_attempts_);
  const double avg_bits = static_cast<double>(downlink_attempt_bits_) /
                          static_cast<double>(downlink_attempts_);
  if (p_corrupt >= 1.0) return 1.0;
  // Invert P(frame corrupt) = 1 - (1 - ber)^bits at the mean frame length.
  return 1.0 - std::pow(1.0 - p_corrupt, 1.0 / avg_bits);
}

bool AirLoop::is_present(const TagId& id) const noexcept {
  return (config_.present == nullptr || config_.present->contains(id)) &&
         injector_.present(id);
}

void AirLoop::record_reply(const tags::Tag& tag) {
  const auto position =
      static_cast<std::size_t>(&tag - population_.tags().data());
  records_.push_back(CollectedRecord{
      tag.id(), population_.reply_payload(position, config_.info_bits)});
}

const tags::Tag* AirLoop::complete_reply(
    std::span<const tags::Tag* const> responders, const tags::Tag* expected,
    double reader_time_us) {
  if (in_recovery_) ++metrics_.retries;
  const air::SlotResult slot = channel_.arbitrate(responders);
  if (slot.outcome == air::SlotOutcome::kEmpty && expected != nullptr &&
      !is_present(expected->id())) {
    // The addressed tag is physically absent: the reader waits out the
    // turn-arounds, decodes nothing, and flags the tag missing. Under a
    // recovery policy the verdict is deferred — the tag may churn back into
    // the field — so the per-poll missing record is suppressed and the
    // protocol's tracker decides between re-poll and undelivered.
    const double dt =
        reader_time_us + config_.timing.t1_us + config_.timing.t2_us;
    metrics_.time_us += dt;
    add_phase(obs::Phase::kWastedSlot, dt);
    ++metrics_.missing;
    ++metrics_.slots_total;
    ++metrics_.slots_wasted;
    if (config_.keep_records && !config_.recovery.enabled)
      missing_ids_.push_back(expected->id());
    if (config_.tracer != nullptr)
      trace_event(obs::EventKind::kTimeout, dt, 0, 0, 0, reader_time_us, 0.0);
    last_failure_ = PollFailure::kAbsent;
    return nullptr;
  }
  if (slot.outcome != air::SlotOutcome::kSingleton) {
    throw ProtocolError(
        "poll did not elicit exactly one reply (responders: " +
        std::to_string(slot.responder_count) + ")");
  }
  if (expected != nullptr && slot.responder != expected) {
    throw ProtocolError("responding tag differs from the reader's target: " +
                        slot.responder->id().to_hex() + " vs " +
                        expected->id().to_hex());
  }
  const double tag_us = config_.timing.tag_tx_us(config_.info_bits);
  // Decode-error decision. The link model draws from the injector's private
  // stream, so enabling it (or leaving it off) does not perturb the
  // session's own sequence of draws.
  if (injector_.link_active() && injector_.corrupt_reply()) {
    // Reply garbled in flight: the full interaction airtime is spent, the
    // PHY CRC rejects the decode, and with no ACK the tag stays awake for
    // a later round.
    const double dt = reader_time_us + config_.timing.t1_us +
                      config_.timing.tag_tx_us(config_.info_bits) +
                      config_.timing.t2_us;
    metrics_.time_us += dt;
    add_phase(obs::Phase::kWastedSlot, dt);
    ++metrics_.corrupted;
    ++metrics_.slots_total;
    ++metrics_.slots_wasted;
    if (config_.tracer != nullptr)
      trace_event(obs::EventKind::kCorrupted, dt, 0, 0, 0, reader_time_us,
                  tag_us);
    last_failure_ = PollFailure::kGarbledReply;
    return nullptr;
  }
  const double dt = reader_time_us + config_.timing.t1_us +
                    config_.timing.tag_tx_us(config_.info_bits) +
                    config_.timing.t2_us;
  metrics_.time_us += dt;
  add_phase(obs::Phase::kReaderVector, reader_time_us);
  add_phase(obs::Phase::kTurnaround,
            config_.timing.t1_us + config_.timing.t2_us);
  add_phase(obs::Phase::kTagReply, tag_us);
  metrics_.tag_bits += config_.info_bits;
  ++metrics_.polls;
  ++metrics_.slots_total;
  ++metrics_.slots_useful;
  if (config_.keep_records) record_reply(*slot.responder);
  if (config_.tracer != nullptr)
    trace_event(obs::EventKind::kReply, dt, 0, 0, config_.info_bits,
                reader_time_us, tag_us);
  last_failure_ = PollFailure::kNone;
  return slot.responder;
}

const tags::Tag* AirLoop::poll(std::span<const tags::Tag* const> responders,
                               const tags::Tag* expected,
                               std::size_t vector_bits) {
  if (config_.framing.enabled && vector_bits > 0) {
    // The vector travels through the framed downlink (its own bit and time
    // accounting); the poll itself then carries only the QueryRep.
    if (!broadcast_framed(vector_bits, /*count_in_w=*/true)) {
      last_failure_ = PollFailure::kDownlinkExhausted;
      return nullptr;
    }
    if (config_.tracer != nullptr)
      trace_event(obs::EventKind::kPoll, 0.0, 0, 0, 0, 0.0, 0.0);
    return complete_reply(
        responders, expected,
        config_.timing.reader_tx_us(config_.timing.query_rep_bits));
  }
  metrics_.vector_bits += vector_bits;
  if (config_.tracer != nullptr)
    trace_event(obs::EventKind::kPoll, 0.0, vector_bits, 0, 0, 0.0, 0.0);
  const double reader_us = config_.timing.reader_tx_us(
      config_.timing.query_rep_bits + vector_bits);
  if (unframed_corrupts(vector_bits)) {
    downlink_corrupt_timeout(reader_us);
    return nullptr;
  }
  return complete_reply(responders, expected, reader_us);
}

void AirLoop::clean_singleton_replies(
    std::span<const std::uint8_t> vector_bits, unsigned index_length) {
  // Mirrors the success branch of poll() -> complete_reply() exactly:
  // vector bits into w, then per poll one clock add of that poll's dt
  // (same expression, same association) and the three phase adds. The
  // per-poll loop is deliberate — summing the clock adds per length would
  // change the floating-point rounding and break byte-identity with the
  // unbatched path. Only the pricing is hoisted: each length once.
  RFID_EXPECTS(index_length <= kMaxCleanVectorBits);
  RFID_EXPECTS(!in_recovery_);
  std::uint64_t w_bits = 0;
  unsigned widest = 0;
  for (const std::uint8_t bits : vector_bits) {
    w_bits += bits;
    widest = std::max<unsigned>(widest, bits);
  }
  RFID_EXPECTS(widest <= index_length);
  metrics_.vector_bits += w_bits;

  const double tag_us = config_.timing.tag_tx_us(config_.info_bits);
  const double turnaround_us = config_.timing.t1_us + config_.timing.t2_us;
  std::array<double, kMaxCleanVectorBits + 1> reader_us{};
  std::array<double, kMaxCleanVectorBits + 1> dt{};
  for (unsigned bits = 0; bits <= index_length; ++bits) {
    reader_us[bits] =
        config_.timing.reader_tx_us(config_.timing.query_rep_bits + bits);
    dt[bits] = reader_us[bits] + config_.timing.t1_us + tag_us +
               config_.timing.t2_us;
  }
  for (const std::uint8_t bits : vector_bits) {
    metrics_.time_us += dt[bits];
    add_phase(obs::Phase::kReaderVector, reader_us[bits]);
    add_phase(obs::Phase::kTurnaround, turnaround_us);
    add_phase(obs::Phase::kTagReply, tag_us);
  }
  const std::uint64_t count = vector_bits.size();
  metrics_.tag_bits += count * config_.info_bits;
  metrics_.polls += count;
  metrics_.slots_total += count;
  metrics_.slots_useful += count;
  channel_.record_clean_singletons(count);
  last_failure_ = PollFailure::kNone;
}

const tags::Tag* AirLoop::poll_bare(
    std::span<const tags::Tag* const> responders, const tags::Tag* expected,
    std::size_t vector_bits) {
  if (config_.framing.enabled && vector_bits > 0) {
    if (!broadcast_framed(vector_bits, /*count_in_w=*/true)) {
      last_failure_ = PollFailure::kDownlinkExhausted;
      return nullptr;
    }
    if (config_.tracer != nullptr)
      trace_event(obs::EventKind::kPoll, 0.0, 0, 0, 0, 0.0, 0.0);
    return complete_reply(responders, expected, /*reader_time_us=*/0.0);
  }
  metrics_.vector_bits += vector_bits;
  if (config_.tracer != nullptr)
    trace_event(obs::EventKind::kPoll, 0.0, vector_bits, 0, 0, 0.0, 0.0);
  const double reader_us = config_.timing.reader_tx_us(vector_bits);
  if (unframed_corrupts(vector_bits)) {
    downlink_corrupt_timeout(reader_us);
    return nullptr;
  }
  return complete_reply(responders, expected, reader_us);
}

void AirLoop::downlink_corrupt_timeout(double reader_time_us) {
  if (in_recovery_) ++metrics_.retries;
  const double dt =
      reader_time_us + config_.timing.t1_us + config_.timing.t2_us;
  metrics_.time_us += dt;
  add_phase(obs::Phase::kWastedSlot, dt);
  ++metrics_.downlink_corrupted;
  ++metrics_.slots_total;
  ++metrics_.slots_wasted;
  if (config_.tracer != nullptr)
    trace_event(obs::EventKind::kTimeout, dt, 0, 0, 0, reader_time_us, 0.0,
                /*detail=*/1);
  last_failure_ = PollFailure::kDownlinkCorrupted;
}

void AirLoop::poll_unanswered(std::size_t vector_bits) {
  metrics_.vector_bits += vector_bits;
  if (config_.tracer != nullptr)
    trace_event(obs::EventKind::kPoll, 0.0, vector_bits, 0, 0, 0.0, 0.0);
  const double reader_us = config_.timing.reader_tx_us(
      config_.timing.query_rep_bits + vector_bits);
  const double dt = reader_us + config_.timing.t1_us + config_.timing.t2_us;
  metrics_.time_us += dt;
  add_phase(obs::Phase::kWastedSlot, dt);
  ++metrics_.slots_total;
  ++metrics_.slots_wasted;
  if (config_.tracer != nullptr)
    trace_event(obs::EventKind::kTimeout, dt, 0, 0, 0, reader_us, 0.0,
                /*detail=*/2);
}

const tags::Tag* AirLoop::poll_slot(
    std::span<const tags::Tag* const> responders, const tags::Tag* expected) {
  if (config_.tracer != nullptr)
    trace_event(obs::EventKind::kPoll, 0.0, 0, 0, 0, 0.0, 0.0);
  return complete_reply(
      responders, expected,
      config_.timing.reader_tx_us(config_.timing.query_rep_bits));
}

const tags::Tag* AirLoop::await_extra_reply(
    std::span<const tags::Tag* const> responders, const tags::Tag* expected) {
  return complete_reply(responders, expected, /*reader_time_us=*/0.0);
}

void AirLoop::expect_empty_slot(
    std::span<const tags::Tag* const> responders, bool full_duration) {
  const air::SlotResult slot = channel_.arbitrate(responders);
  if (slot.outcome != air::SlotOutcome::kEmpty) {
    throw ProtocolError("slot marked wasted was answered by " +
                        std::to_string(slot.responder_count) + " tag(s)");
  }
  const double dt = full_duration
                        ? config_.timing.poll_us(0, config_.info_bits)
                        : config_.timing.idle_slot_us();
  metrics_.time_us += dt;
  add_phase(obs::Phase::kWastedSlot, dt);
  ++metrics_.slots_total;
  ++metrics_.slots_wasted;
  if (config_.tracer != nullptr)
    trace_event(obs::EventKind::kSlotEmpty, dt, 0, 0, 0, 0.0, 0.0);
}

air::SlotResult AirLoop::frame_slot_aloha(
    std::span<const tags::Tag* const> responders) {
  air::SlotResult slot = channel_.arbitrate(responders);
  if (slot.outcome == air::SlotOutcome::kCollision &&
      config_.capture_probability > 0.0 &&
      protocol_rng_.bernoulli(config_.capture_probability)) {
    // Capture effect: one reply dominates the superposition and decodes.
    // The "strongest" tag is drawn uniformly (the simulator has no power
    // model); the losers stay unread, exactly as if they had been silent.
    slot.outcome = air::SlotOutcome::kSingleton;
    slot.responder = responders[protocol_rng_.below(responders.size())];
  }
  if (slot.outcome == air::SlotOutcome::kSingleton &&
      injector_.link_active() && injector_.corrupt_reply()) {
    // A garbled singleton wastes the slot exactly like a collision.
    slot.decoded = false;
    const double dt = config_.timing.collision_slot_us(config_.info_bits);
    metrics_.time_us += dt;
    add_phase(obs::Phase::kWastedSlot, dt);
    ++metrics_.corrupted;
    ++metrics_.slots_total;
    ++metrics_.slots_wasted;
    if (config_.tracer != nullptr)
      trace_event(obs::EventKind::kCorrupted, dt, 0, 0, 0, 0.0,
                  config_.timing.tag_tx_us(config_.info_bits));
    return slot;
  }
  switch (slot.outcome) {
    case air::SlotOutcome::kEmpty: {
      const double dt = config_.timing.idle_slot_us();
      metrics_.time_us += dt;
      add_phase(obs::Phase::kWastedSlot, dt);
      ++metrics_.slots_total;
      ++metrics_.slots_wasted;
      if (config_.tracer != nullptr)
        trace_event(obs::EventKind::kSlotEmpty, dt, 0, 0, 0, 0.0, 0.0);
      break;
    }
    case air::SlotOutcome::kCollision: {
      const double dt =
          config_.timing.collision_slot_us(config_.info_bits);
      metrics_.time_us += dt;
      add_phase(obs::Phase::kWastedSlot, dt);
      ++metrics_.slots_total;
      ++metrics_.slots_wasted;
      if (config_.tracer != nullptr)
        trace_event(obs::EventKind::kSlotCollision, dt, 0, 0, 0, 0.0, 0.0);
      break;
    }
    case air::SlotOutcome::kSingleton: {
      const double dt = config_.timing.poll_us(0, config_.info_bits);
      const double reader_us =
          config_.timing.reader_tx_us(config_.timing.query_rep_bits);
      const double tag_us = config_.timing.tag_tx_us(config_.info_bits);
      metrics_.time_us += dt;
      add_phase(obs::Phase::kReaderVector, reader_us);
      add_phase(obs::Phase::kTurnaround,
                config_.timing.t1_us + config_.timing.t2_us);
      add_phase(obs::Phase::kTagReply, tag_us);
      metrics_.tag_bits += config_.info_bits;
      ++metrics_.polls;
      ++metrics_.slots_total;
      ++metrics_.slots_useful;
      if (config_.keep_records) record_reply(*slot.responder);
      if (config_.tracer != nullptr)
        trace_event(obs::EventKind::kReply, dt, 0, 0, config_.info_bits,
                    reader_us, tag_us);
      break;
    }
  }
  return slot;
}

bool AirLoop::presence_slot(std::span<const tags::Tag* const> responders) {
  const air::SlotResult slot = channel_.arbitrate(responders);
  const bool busy = slot.outcome != air::SlotOutcome::kEmpty;
  // Energy sensing: a busy slot carries one bit of backscatter; an empty
  // slot only the turn-arounds. Noise is irrelevant at this granularity —
  // the reader detects power, not payload.
  const double reader_us =
      config_.timing.reader_tx_us(config_.timing.query_rep_bits);
  const double dt =
      config_.timing.reader_tx_us(config_.timing.query_rep_bits) +
      config_.timing.t1_us + (busy ? config_.timing.tag_tx_us(1) : 0.0) +
      config_.timing.t2_us;
  metrics_.time_us += dt;
  if (busy) {
    add_phase(obs::Phase::kReaderVector, reader_us);
    add_phase(obs::Phase::kTurnaround,
              config_.timing.t1_us + config_.timing.t2_us);
    add_phase(obs::Phase::kTagReply, config_.timing.tag_tx_us(1));
    metrics_.tag_bits += slot.responder_count;
  } else {
    add_phase(obs::Phase::kWastedSlot, dt);
  }
  ++metrics_.slots_total;
  if (config_.tracer != nullptr) {
    if (busy)
      trace_event(obs::EventKind::kReply, dt, 0, 0, slot.responder_count,
                  reader_us, config_.timing.tag_tx_us(1));
    else
      trace_event(obs::EventKind::kSlotEmpty, dt, 0, 0, 0, reader_us, 0.0);
  }
  return busy;
}

}  // namespace rfid::sim
