// Air-interface event tracing.
//
// The paper's headline numbers are *distributions* — polling-vector bits per
// tag (Figs. 3/5/9), per-protocol time breakdowns (Tables I-III) — but
// sim::Metrics only keeps sums. The trace closes that gap: when a
// SessionConfig carries a TraceSink pointer, the Session emits one typed
// event per accounting action (broadcast, poll, reply, timeout, wasted
// slot, round or circle start), stamped with the simulated clock and the
// exact bit and microsecond increments that went into the metrics. A run's
// events are a lossless decomposition of its Metrics totals:
//
//   sum(event.vector_bits)  == metrics.vector_bits
//   sum(event.command_bits) == metrics.command_bits
//   sum(event.tag_bits)     == metrics.tag_bits
//   fold(+, event.duration_us) == metrics.time_us   (bit-exact: durations
//       are the very doubles added to the clock, in the same order)
//   replay_phases over all events == metrics.phases (to 1e-9 of time_us)
//
// With no sink configured the hooks are a single branch on a null pointer;
// hot paths are otherwise untouched and seeded runs stay byte-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/phase_timer.hpp"

namespace rfid::obs {

/// Everything that can happen on the air interface, one tag per action.
enum class EventKind : std::uint8_t {
  kReaderBroadcast,  ///< standalone reader frame (round/circle init, Select)
  kPoll,             ///< a polling vector was issued (duration on the reply)
  kReply,            ///< a singleton reply decoded; full interaction airtime
  kTimeout,          ///< addressed tag absent; reader waited out the window
  kCorrupted,        ///< reply garbled in flight; airtime spent, no decode
  kSlotEmpty,        ///< frame slot nobody answered
  kSlotCollision,    ///< frame slot with >= 2 replies superposed
  kRoundBegin,       ///< inventory round started
  kCircleBegin,      ///< EHPP subset-query circle started
  kSegmentCorrupted,  ///< framed downlink segment failed its CRC check
  kDegrade,  ///< adaptive policy downgraded the protocol tier mid-session
};

inline constexpr std::size_t kEventKindCount = 11;

[[nodiscard]] std::string_view to_string(EventKind kind) noexcept;

/// Parses the names emitted by to_string; returns false on unknown input.
[[nodiscard]] bool parse_event_kind(std::string_view name,
                                    EventKind& out) noexcept;

/// One air-interface event. Bit fields partition the session's bit metrics;
/// `duration_us` is exactly the increment applied to the session clock for
/// this event (0 for kPoll — its airtime is carried by the outcome event
/// that follows — and for round/circle markers). `reader_us`/`tag_us` split
/// the duration into phase components (see obs/phase_timer.hpp); whatever
/// remains is turn-around time. `recovery` marks an event the session
/// charged whole to Phase::kRecovery: everything inside a recovery scope,
/// and framed retransmissions with their NACK windows.
struct Event final {
  EventKind kind = EventKind::kReaderBroadcast;
  std::uint64_t round = 0;       ///< rounds begun so far (1-based once running)
  std::uint64_t circle = 0;      ///< circles begun so far
  std::uint64_t vector_bits = 0;   ///< reader bits counted into w
  std::uint64_t command_bits = 0;  ///< reader bits outside w
  std::uint64_t tag_bits = 0;      ///< decoded tag bits
  double time_us = 0.0;      ///< session clock *after* the event
  double duration_us = 0.0;  ///< clock increment attributed to the event
  double reader_us = 0.0;    ///< reader-transmission share of the duration
  double tag_us = 0.0;       ///< tag-transmission share of the duration
  /// Kind-specific payload, excluded from every metric identity. Zero for
  /// most kinds; kSegmentCorrupted and framed kReaderBroadcast store the
  /// segment sequence number, kDegrade stores (from_tier << 8) | to_tier
  /// (analysis::PollingTier), kTimeout stores 1 when the downlink vector
  /// was BER-corrupted and 2 when a desynchronized poll went unanswered.
  std::uint64_t detail = 0;
  bool recovery = false;
};

/// Adds `event`'s airtime to `phases` by the rules the session charges it
/// with, so replaying a run's events reproduces Metrics::phases: a recovery
/// event goes whole to kRecovery; a broadcast splits between kReaderVector
/// and kCommand in the ratio of its vector and command bits (reader
/// airtime is linear in bits); a reply splits into reader, tag and
/// turn-around time; wasted slots go to kWastedSlot and a NACK window to
/// kRecovery.
void replay_phases(const Event& event, PhaseBreakdown& phases) noexcept;

/// Receives the event stream. Implementations must not mutate simulation
/// state; a sink is wired to exactly one session at a time (sessions are
/// single-threaded, so sinks need no locking). Not owned by the session.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void on_event(const Event& event) = 0;
  /// Called once when the session finishes; flush buffers here.
  virtual void on_finish() {}
};

/// Fixed-capacity in-memory sink for tests and interactive inspection: keeps
/// the newest `capacity` events (older ones are dropped oldest-first) plus
/// running totals over *all* events seen, so metric identities can be
/// asserted even when the buffer wrapped.
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity = 4096);

  void on_event(const Event& event) override;

  /// Events still buffered, oldest first.
  [[nodiscard]] std::vector<Event> snapshot() const;

  [[nodiscard]] std::uint64_t total_events() const noexcept { return seen_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return seen_ - static_cast<std::uint64_t>(size_);
  }
  [[nodiscard]] std::uint64_t sum_vector_bits() const noexcept {
    return sum_vector_bits_;
  }
  [[nodiscard]] std::uint64_t sum_command_bits() const noexcept {
    return sum_command_bits_;
  }
  [[nodiscard]] std::uint64_t sum_tag_bits() const noexcept {
    return sum_tag_bits_;
  }
  /// Left-to-right fold of duration_us in arrival order — bit-identical to
  /// the session clock when every event was seen.
  [[nodiscard]] double sum_duration_us() const noexcept { return sum_us_; }

 private:
  std::vector<Event> buffer_;
  std::size_t head_ = 0;  ///< next write position
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t sum_vector_bits_ = 0;
  std::uint64_t sum_command_bits_ = 0;
  std::uint64_t sum_tag_bits_ = 0;
  double sum_us_ = 0.0;
};

/// Streams events as JSON Lines: one self-contained object per line, with a
/// leading `{"type":"meta",...}` header carrying the schema version so
/// offline tools (examples/trace_inspect) can sanity-check what they read.
/// The stream is flushed on on_finish().
class JsonlSink final : public TraceSink {
 public:
  /// Writes to an externally owned stream.
  explicit JsonlSink(std::ostream& os);
  /// Opens `path` for writing; throws std::runtime_error on failure.
  explicit JsonlSink(const std::string& path);

  void on_event(const Event& event) override;
  void on_finish() override;

 private:
  void write_meta();

  std::ofstream file_;   ///< used by the path constructor
  std::ostream* os_;     ///< always valid; points at file_ or the ctor arg
};

}  // namespace rfid::obs
