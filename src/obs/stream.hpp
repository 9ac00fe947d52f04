// Streaming telemetry: periodic immutable snapshots of live metrics.
//
// The JSONL/ring sinks of obs/trace.hpp are post-hoc: they record a run so
// tools can replay it after the fact. A long-running simulation daemon
// (tools/simserved) needs the opposite — a live, thread-safe view of the
// metrics while the simulation keeps going. StreamingAggregator is that
// bridge:
//
//   * the simulation thread folds per-round Metrics state in with
//     update_reader() / complete_epoch() — an O(sizeof(Metrics)) copy or one
//     Metrics::merge under an uncontended mutex, no heap allocation, so the
//     zero-allocation steady state of the round engine survives the hook
//     (gated by bench_round_engine's `engine+stream` row);
//   * a publisher (the serving layer, on its own cadence) calls publish(),
//     which freezes the folded state into one immutable MetricsSnapshot —
//     totals are the bit-exact Metrics::merge fold of the per-reader states
//     in reader order, the same fold the trial runner uses — and fans it out
//     to every subscriber;
//   * subscribers (one per SSE client) each own a bounded ring queue.
//     A slow or stalled subscriber NEVER blocks the publisher: when a queue
//     is full the oldest item is dropped and the subscription's drop counter
//     increments. Consumers poll() or wait() items out at their own pace.
//
// publish() also synthesizes typed StreamEvents (protocol degradations,
// abandoned tags, completed inventory epochs) by diffing against the
// previously published snapshot, so fault telemetry rides the same queues
// as the periodic snapshots.
//
// The aggregator never reads a clock: wall-clock pacing and the wall-seconds
// argument of publish() belong to the serving layer (src/serve/, the one
// place wall time is allowed — see docs/observability.md).
#pragma once

#include <cstddef>
#include <cstdint>
#include <condition_variable>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.hpp"
#include "common/thread_annotations.hpp"
#include "obs/health.hpp"
#include "obs/metrics.hpp"

namespace rfid::obs {

/// Live state of one reader as folded so far: the bit-exact merge of every
/// completed inventory epoch plus the running session's cumulative metrics.
struct ReaderTelemetry final {
  Metrics metrics{};          ///< completed epochs ⊕ live session (in order)
  double ber_estimate = 0.0;  ///< live downlink BER (AirLoop::estimated_ber)
  std::uint64_t epochs = 0;   ///< completed inventory drains
  std::uint64_t retry_budget = 0;  ///< recovery re-polls allowed per tag
  ReaderHealth health = ReaderHealth::kHealthy;  ///< supervisor's view
};

/// Live state of one frequency channel in a deployment sweep (see
/// core/deployment.hpp): how many readers share it and the airtime it has
/// carried so far, fed via update_channel(). An aggregator that never
/// configures channels keeps the channel-free snapshot JSON.
struct ChannelTelemetry final {
  std::size_t readers = 0;   ///< readers time-dividing this channel
  std::uint64_t rounds = 0;  ///< polling rounds transmitted on it
  double busy_us = 0.0;      ///< simulated airtime the channel carried
};

/// A typed telemetry event, synthesized at publish time from metric deltas.
struct StreamEvent final {
  enum class Kind : std::uint8_t {
    kDegrade,      ///< adaptive protocol-tier downgrades observed
    kUndelivered,  ///< tags abandoned after retry-budget exhaustion
    kEpoch,        ///< inventory epochs completed (population drained)
    kReaderDown,   ///< a reader's health entered the down state
    kReaderRecovered,  ///< a down/recovering reader completed a round again
  };

  Kind kind = Kind::kEpoch;
  std::size_t reader = 0;
  std::uint64_t count = 0;     ///< delta since the previous publish
  std::uint64_t sequence = 0;  ///< snapshot sequence that carried the delta
  double sim_time_us = 0.0;    ///< reader's simulated clock at publish
};

[[nodiscard]] std::string_view to_string(StreamEvent::Kind kind) noexcept;

/// One frozen, immutable view of the whole deployment. Shared read-only
/// across subscribers via shared_ptr; never mutated after publish().
struct MetricsSnapshot final {
  std::uint64_t sequence = 0;   ///< 1-based publish counter
  double interval_s = 0.0;      ///< wall seconds since the previous publish
  double rounds_per_sec = 0.0;  ///< delta rounds / interval_s (0 first/paused)
  Metrics totals{};             ///< merge-fold of readers[].metrics in order
  std::vector<ReaderTelemetry> readers;
  /// Empty unless configure_channels() ran, and then absent from the JSON.
  std::vector<ChannelTelemetry> channels;
  std::uint64_t fleet_handoffs = 0;  ///< fault- and churn-driven rehomings
  std::uint64_t fleet_churn_departures = 0;
};

/// Deterministic compact JSON (one object, one line, precision-17 doubles).
/// Byte-stable for equal snapshots — serial vs pooled folds that produce
/// identical metrics serialize identically (tested in tests/test_obs.cpp).
void write_json(std::ostream& os, const MetricsSnapshot& snapshot);
[[nodiscard]] std::string to_json(const MetricsSnapshot& snapshot);

/// One Metrics struct in the same byte-stable conventions; reused by the
/// snapshot writer above and by crash-consistent final-metrics reports
/// (core/epochs.hpp), so both surfaces stay field-for-field identical.
void write_json(std::ostream& os, const Metrics& metrics);

/// JSON for one synthesized event (same conventions as snapshot JSON).
[[nodiscard]] std::string to_json(const StreamEvent& event);

/// A bounded, drop-oldest queue of published items, one per consumer.
/// push() (publisher side) never blocks: a full queue drops its oldest item
/// and counts the drop. Consumers poll() or wait() at their own pace.
class StreamSubscription final {
 public:
  struct Item final {
    enum class Type : std::uint8_t { kSnapshot, kEvent };
    Type type = Type::kSnapshot;
    std::shared_ptr<const MetricsSnapshot> snapshot;  ///< set for kSnapshot
    StreamEvent event{};                              ///< set for kEvent
  };

  explicit StreamSubscription(std::size_t capacity);

  /// Oldest queued item, or nullopt when the queue is empty.
  [[nodiscard]] std::optional<Item> poll() RFID_EXCLUDES(mutex_);

  /// Like poll(), but blocks up to timeout_ms for an item to arrive. Returns
  /// nullopt on timeout or when the subscription was closed while empty.
  [[nodiscard]] std::optional<Item> wait(unsigned timeout_ms)
      RFID_EXCLUDES(mutex_);

  /// Items discarded because the queue was full when push() arrived.
  [[nodiscard]] std::uint64_t dropped() const RFID_EXCLUDES(mutex_);

  /// True once close() ran; a closed, drained subscription yields nothing.
  [[nodiscard]] bool closed() const RFID_EXCLUDES(mutex_);

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  friend class StreamingAggregator;

  /// Publisher side: enqueue, dropping the oldest item when full. Never
  /// blocks, never allocates (the ring is sized at construction).
  void push(Item item) RFID_EXCLUDES(mutex_);

  /// Wakes every waiter; wait() stops blocking once closed.
  void close() RFID_EXCLUDES(mutex_);

  const std::size_t capacity_;
  mutable Mutex mutex_;
  std::condition_variable_any ready_;
  std::vector<Item> ring_ RFID_GUARDED_BY(mutex_);
  std::size_t head_ RFID_GUARDED_BY(mutex_) = 0;  ///< oldest item
  std::size_t size_ RFID_GUARDED_BY(mutex_) = 0;
  std::uint64_t dropped_ RFID_GUARDED_BY(mutex_) = 0;
  bool closed_ RFID_GUARDED_BY(mutex_) = false;
};

/// Thread-safe, backpressure-safe publisher folding per-reader metrics into
/// periodic immutable snapshots. See the file comment for the contract.
class StreamingAggregator final {
 public:
  explicit StreamingAggregator(std::size_t readers);

  [[nodiscard]] std::size_t reader_count() const noexcept { return readers_n_; }

  // --- Simulation-thread side (hot path; no allocation) ---------------------

  /// Replaces reader `reader`'s live-session view with `cumulative` (the
  /// session's running totals — totals, not deltas, so the copy is bit-exact
  /// by construction) and its live BER estimate.
  void update_reader(std::size_t reader, const Metrics& cumulative,
                     double ber_estimate) RFID_EXCLUDES(mutex_);

  /// Epoch boundary: folds the drained session's final totals into the
  /// reader's completed accumulator (Metrics::merge, the bit-exact fold) and
  /// clears the live slot for the next session.
  void complete_epoch(std::size_t reader, const Metrics& session_totals)
      RFID_EXCLUDES(mutex_);

  /// Records the recovery retry budget the reader runs with (reporting
  /// only; budget consumption is metrics.retries / undelivered).
  void set_retry_budget(std::size_t reader, std::uint64_t budget)
      RFID_EXCLUDES(mutex_);

  /// Updates the supervisor's health verdict for `reader` (reporting only).
  /// publish() synthesizes kReaderDown / kReaderRecovered events from
  /// health transitions between publishes.
  void set_reader_health(std::size_t reader, ReaderHealth health)
      RFID_EXCLUDES(mutex_);

  /// Sizes the channel slots (idempotent; 0 drops them). Snapshots then
  /// carry a channels array and the fleet handoff counters.
  void configure_channels(std::size_t channels) RFID_EXCLUDES(mutex_);

  /// Replaces channel `channel`'s live view (running totals, not deltas).
  void update_channel(std::size_t channel, std::size_t readers,
                      std::uint64_t rounds, double busy_us)
      RFID_EXCLUDES(mutex_);

  /// Replaces the deployment-wide handoff / churn-departure running totals.
  void set_fleet_counters(std::uint64_t handoffs,
                          std::uint64_t churn_departures)
      RFID_EXCLUDES(mutex_);

  /// Checkpoint resume (core/epochs.hpp): overwrites the reader's
  /// completed fold, epoch count and health in one call. The live slot is
  /// cleared — resume always lands on an epoch boundary, so there is no
  /// in-flight session to carry over.
  void restore_reader(std::size_t reader, const Metrics& completed,
                      std::uint64_t epochs, ReaderHealth health)
      RFID_EXCLUDES(mutex_);

  // --- Publisher side (snapshot cadence) ------------------------------------

  /// Freezes the folded state into an immutable snapshot, synthesizes typed
  /// events from deltas vs the previous publish, and fans both out to every
  /// subscriber. `wall_dt_s` is the wall-clock seconds since the previous
  /// publish as measured by the caller — the aggregator itself never reads
  /// a clock, so simulation layers linking it stay rfidlint-clean.
  std::shared_ptr<const MetricsSnapshot> publish(double wall_dt_s)
      RFID_EXCLUDES(mutex_);

  /// The most recently published snapshot; nullptr before the first publish.
  [[nodiscard]] std::shared_ptr<const MetricsSnapshot> latest() const
      RFID_EXCLUDES(mutex_);

  // --- Consumer side ----------------------------------------------------------

  /// Registers a new bounded subscription (queue of `capacity` items).
  [[nodiscard]] std::shared_ptr<StreamSubscription> subscribe(
      std::size_t capacity) RFID_EXCLUDES(mutex_);

  /// Deregisters and closes one subscription (idempotent).
  void unsubscribe(const std::shared_ptr<StreamSubscription>& subscription)
      RFID_EXCLUDES(mutex_);

  /// Closes every subscription (daemon shutdown); subscribers drain and
  /// then see closed() == true.
  void close_all() RFID_EXCLUDES(mutex_);

 private:
  struct ReaderState final {
    Metrics completed{};  ///< fold of finished epochs
    Metrics live{};       ///< running session totals
    double ber_estimate = 0.0;
    std::uint64_t epochs = 0;
    std::uint64_t retry_budget = 0;
    ReaderHealth health = ReaderHealth::kHealthy;
  };

  const std::size_t readers_n_;
  mutable Mutex mutex_;
  std::vector<ReaderState> readers_ RFID_GUARDED_BY(mutex_);
  std::vector<ChannelTelemetry> channels_ RFID_GUARDED_BY(mutex_);
  std::uint64_t fleet_handoffs_ RFID_GUARDED_BY(mutex_) = 0;
  std::uint64_t fleet_churn_departures_ RFID_GUARDED_BY(mutex_) = 0;
  std::shared_ptr<const MetricsSnapshot> latest_ RFID_GUARDED_BY(mutex_);
  std::uint64_t sequence_ RFID_GUARDED_BY(mutex_) = 0;
  std::vector<std::shared_ptr<StreamSubscription>> subscriptions_
      RFID_GUARDED_BY(mutex_);
};

}  // namespace rfid::obs
