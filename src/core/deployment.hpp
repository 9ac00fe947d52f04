// Deployment simulator: hundreds of readers with overlapping interrogation
// zones, frequency-channel scheduling and continuous tag churn.
//
// The paper (Section II-A) assumes "the collision-free transmission
// schedule among the readers is established" and says nothing about how.
// core/multi_reader.hpp models the two degenerate schedules (one shared
// channel = pure time division; fully RF-isolated zones = full spatial
// parallelism); this layer generalizes both into the schedule real sites
// run: R readers share C frequency channels, readers on the same channel
// take turns (time division within the channel) while readers on different
// channels interrogate concurrently (spatial parallelism across channels).
// C = 1 reproduces kTimeDivision, C = R reproduces kSpatialParallel, and
// everything in between is a dense-reader site — the case the two-value
// ReaderSchedule enum could not express.
//
// Three deployment realities ride on top of the schedule:
//
//   * Overlapping zones. A tag near a zone boundary is reachable by its
//     home reader AND the next zone's reader. Exactly one of them owns the
//     tag (deterministic ownership resolution: the reachable reader with
//     the smallest per-reader keyed hash of the tag ID), so every tag is
//     interrogated by exactly one reader and the delivered-or-listed
//     accounting of the fleet layer stays exact. The overlap also gives
//     fault handoff a better target: a downed reader's boundary tags
//     rehome to the other reader that can already hear them.
//
//   * Continuous churn. Tags depart (goods ship out) and move between
//     zones (goods relocate) on pure per-tag hazard schedules — every
//     event tick is a pure function of (churn_seed, id, event#), never a
//     draw from mutable RNG state, so a tag's trajectory is identical
//     regardless of shard count, schedule, or thread count. A moved tag
//     triggers a handoff to its new owner (consuming the same per-tag
//     fleet handoff budget as fault rehoming); a departed tag that was
//     never read is listed as missing. Churn therefore never breaks the
//     exact accounting: population = delivered + missing + undelivered.
//     The same walk yields the tick of the tag's next event, before which
//     neither its zone nor its owner can change, so a reader re-evaluates
//     a tag only when that tick has come or the tag has just arrived: the
//     scan's cost follows churn events, not active tags x ticks.
//
//   * Reader faults. The PR-8 supervision machinery (fault::
//     ReaderSupervisor, per-reader fault streams, bounded handoff budgets)
//     plugs in unchanged; deadline- and backoff-valued supervisor knobs
//     are scaled by the channel rotation length so a reader that only
//     transmits every R/C ticks is not declared dead for obeying the
//     schedule.
//
// Scale & determinism. The tick loop splits into a parallel phase — every
// execution shard (a contiguous reader range with its own tags::TagSoA
// columns) runs its scheduled readers' rounds and churn scans, touching
// only reader-local state — and a serial merge phase that applies
// supervision, handoffs and report folds in reader index order. All
// cross-reader mutation is serial and reader-ordered, so a run is
// byte-identical serial vs RFID_THREADS=N and invariant to the shard
// count; the fault-free serial tick path performs zero steady-state heap
// allocations (gated by tests/test_alloc_guard.cpp). run_fleet is a thin
// legacy wrapper over this layer (channels = readers, no overlap, no
// churn). See docs/fleet.md and docs/architecture.md ("Deployment
// simulator").
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/multi_reader.hpp"
#include "fault/fault_model.hpp"
#include "fault/supervisor.hpp"
#include "obs/health.hpp"
#include "parallel/thread_pool.hpp"
#include "protocols/registry.hpp"
#include "sim/session.hpp"
#include "tags/population.hpp"

namespace rfid::core {

struct DeploymentConfig final {
  std::size_t readers = 8;
  /// Frequency channels; clamped to `readers`. Readers r and r' share a
  /// channel iff r ≡ r' (mod channels) and then never transmit in the
  /// same tick. 1 = pure time division, readers = full spatial parallelism.
  std::size_t channels = 1;
  protocols::ProtocolKind kind = protocols::ProtocolKind::kTpp;
  sim::SessionConfig session{};  ///< per-reader seeds derive from .seed
  std::uint64_t partition_seed = 0x52464944;
  /// Probability that a tag is also reachable by the next zone's reader
  /// (pure per-tag hash draw; 0 = disjoint zones, the legacy partition).
  double zone_overlap = 0.0;
  /// Keys the per-reader ownership hash that resolves overlapping reach.
  std::uint64_t ownership_seed = 0x4F574E52;  // "OWNR"
  /// Per-tag, per-tick departure hazard (goods leaving the site for good).
  double churn_depart_per_tick = 0.0;
  /// Per-tag, per-tick zone-move hazard (goods relocating; each observed
  /// move rehomes the tag to its new owner, consuming handoff budget).
  double churn_move_per_tick = 0.0;
  std::uint64_t churn_seed = 0x4348524E;  // "CHRN"
  fault::ReaderFaultConfig reader_faults{};
  /// Tick-valued fields (deadlines, backoffs) are interpreted in units of
  /// the channel rotation length — scaled internally by ceil(readers /
  /// channels) — so the same config means the same wall-equivalent
  /// patience at any channel count.
  fault::SupervisorConfig supervisor{};
  std::uint32_t handoff_budget = 4;
  std::uint64_t max_ticks = 1u << 20;
  /// Execution shards (contiguous reader ranges run as one pool task).
  /// 0 = one shard per pool worker (1 when serial). Results are invariant
  /// to this knob; it only controls parallel grain.
  std::size_t shards = 0;
};

struct ChannelReport final {
  std::size_t readers = 0;      ///< readers assigned to this channel
  std::uint64_t rounds = 0;     ///< polling rounds transmitted on it
  double busy_us = 0.0;         ///< airtime the channel carried
};

struct DeploymentReport final {
  std::vector<sim::Metrics> per_reader_metrics;  ///< folded incarnations
  std::vector<obs::ReaderHealth> per_reader_health;
  std::vector<std::uint64_t> per_reader_incarnations;
  std::vector<std::size_t> per_reader_delivered;
  /// Merge-fold of per-reader metrics in reader index order (the
  /// deterministic fold every sharded/pooled run reproduces byte-for-byte).
  sim::Metrics totals{};
  std::vector<ChannelReport> per_channel;
  /// Full records only when session.keep_records — at deployment scale the
  /// sweep runs record-free and accounts by exact counts instead.
  std::vector<sim::CollectedRecord> records;
  std::vector<TagId> missing_ids;      ///< departed before they were read
  std::vector<TagId> undelivered_ids;  ///< budgets / tick cap gave them up
  std::vector<fault::HealthTransition> transitions;
  std::size_t delivered = 0;    ///< tags successfully interrogated
  std::uint64_t ticks = 0;
  std::uint64_t handoffs = 0;       ///< fault- and churn-driven rehomings
  std::uint64_t churn_moves = 0;    ///< handoffs caused by zone moves
  std::uint64_t churn_departures = 0;
  double makespan_s = 0.0;      ///< sum over ticks of the slowest channel
  double total_busy_s = 0.0;    ///< summed reader airtime (energy proxy)
  bool verified = false;        ///< exact delivered-or-listed accounting
};

// --- Pure schedule / placement rules (exposed for tests) --------------------

/// The channel reader `r` transmits on.
[[nodiscard]] constexpr std::size_t channel_of(std::size_t reader,
                                               std::size_t channels) noexcept {
  return reader % channels;
}

/// How many readers share channel `c` out of `readers` total.
[[nodiscard]] std::size_t channel_population(std::size_t channel,
                                             std::size_t readers,
                                             std::size_t channels);

/// The one reader allowed to transmit on `channel` during `tick` (ticks are
/// 1-based). Exactly one reader per channel per tick, every channel member
/// scheduled once per rotation — the no-co-channel-concurrency invariant.
[[nodiscard]] std::size_t scheduled_reader(std::size_t channel,
                                           std::size_t readers,
                                           std::size_t channels,
                                           std::uint64_t tick);

/// True when `id` is also reachable by zone (home+1) % readers — a pure
/// per-tag hash draw against `zone_overlap`.
[[nodiscard]] bool tag_reaches_neighbor(const TagId& id, double zone_overlap,
                                        std::uint64_t partition_seed);

/// Ownership resolution: among the readers that can reach a tag sitting in
/// `zone`, the one with the smallest ownership-keyed hash of the ID (ties
/// to the lower index). With zone_overlap == 0 this is `zone` itself.
[[nodiscard]] std::size_t owner_in_zone(const TagId& id, std::size_t zone,
                                        const DeploymentConfig& config);

/// The tag's zone and presence at `tick` under the pure churn schedule:
/// walks the tag's (churn_seed, id, event#) hazard events from its home
/// zone. `departed_at` is the departure tick when `departed` (events after
/// a departure never fire — departure is absorbing).
struct ChurnPosition final {
  std::size_t zone = 0;
  bool departed = false;
  std::uint64_t departed_at = 0;
  std::uint32_t moves = 0;  ///< move events that fired up to `tick`
  /// The tick of the next hazard event: on [tick, next_event_at) the
  /// position (and so the tag's owner) cannot change. UINT64_MAX when no
  /// event is left — zero hazards, or the tag has departed.
  std::uint64_t next_event_at = UINT64_MAX;
};
[[nodiscard]] ChurnPosition churn_position(const TagId& id,
                                           std::size_t home_zone,
                                           std::uint64_t tick,
                                           const DeploymentConfig& config);

/// The placement and churn rules above over a tag's ID words (see
/// core::id_words and tags::TagSoA), with every per-config constant derived
/// once: the overlap key, the event-0 churn keys and the hazard's
/// log-survival. reader_of, tag_reaches_neighbor, owner_in_zone and
/// churn_position are thin wrappers over these forms, the way tag_hash
/// wraps tag_hash_words; core::Deployment keeps one instance per sweep, so
/// its churn scan never re-derives a key or dereferences a Tag.
class PlacementRules final {
 public:
  explicit PlacementRules(const DeploymentConfig& config) noexcept;

  /// The home zone (reader_of).
  [[nodiscard]] std::size_t home(IdWords id) const noexcept;
  [[nodiscard]] bool reaches_neighbor(IdWords id) const noexcept;
  /// Requires zone < readers.
  [[nodiscard]] std::size_t owner_in_zone(IdWords id,
                                          std::size_t zone) const noexcept;
  [[nodiscard]] ChurnPosition churn_position(IdWords id, std::size_t home_zone,
                                             std::uint64_t tick) const noexcept;

 private:
  std::size_t readers_;
  std::uint64_t partition_seed_;
  double zone_overlap_;
  std::uint64_t overlap_key_;
  std::uint64_t ownership_seed_;
  std::uint64_t churn_seed_;
  double depart_;
  /// Departure plus move hazard, and log1p(-hazard) clamped below 1.
  double hazard_;
  double log_survive_;
  /// Event 0's interarrival and depart-or-move keys.
  std::uint64_t first_wait_key_;
  std::uint64_t first_kind_key_;
};

// --- The simulator ----------------------------------------------------------

namespace detail {
struct ReaderRuntime;
}  // namespace detail

/// One stepping deployment sweep. Construct, call tick() until it returns
/// false (or drive it from a serving loop, publishing the live accessors
/// between ticks), then finish() exactly once for the folded report.
class Deployment final {
 public:
  /// `population` and `pool` are borrowed and must outlive the Deployment;
  /// pool == nullptr runs the parallel phase inline (serial), byte-identical
  /// to any pooled run.
  Deployment(const tags::TagPopulation& population, DeploymentConfig config,
             parallel::ThreadPool* pool = nullptr);
  ~Deployment();

  Deployment(const Deployment&) = delete;
  Deployment& operator=(const Deployment&) = delete;

  /// Runs one scheduling tick. Returns false once no reader holds active
  /// tags (or the tick cap tripped — finish() then lists the survivors).
  bool tick();

  /// Folds every live session and builds the report. Call once, after the
  /// last tick; the Deployment is drained afterwards.
  [[nodiscard]] DeploymentReport finish();

  // --- Live views (telemetry; safe between ticks) ---------------------------

  [[nodiscard]] std::size_t reader_count() const noexcept;
  [[nodiscard]] std::size_t channel_count() const noexcept;
  [[nodiscard]] std::size_t shard_count() const noexcept;
  [[nodiscard]] std::uint64_t ticks_run() const noexcept;
  [[nodiscard]] std::size_t active_remaining() const;
  /// Folded incarnations ⊕ the live session's running totals.
  [[nodiscard]] sim::Metrics reader_metrics(std::size_t reader) const;
  [[nodiscard]] obs::ReaderHealth reader_health(std::size_t reader) const;
  [[nodiscard]] double channel_busy_us(std::size_t channel) const;
  [[nodiscard]] std::uint64_t channel_rounds(std::size_t channel) const;
  [[nodiscard]] std::uint64_t handoffs() const noexcept;
  [[nodiscard]] std::uint64_t churn_departures() const noexcept;

 private:
  void apply_fault_event(std::size_t reader, detail::ReaderRuntime& rt);
  void hand_off(std::size_t from);
  void fold_session(std::size_t reader, detail::ReaderRuntime& rt);
  void build_session(std::size_t reader, detail::ReaderRuntime& rt);
  void run_reader_parallel(std::size_t reader, detail::ReaderRuntime& rt);
  void churn_scan(std::size_t reader, detail::ReaderRuntime& rt);
  /// Consumes one unit of the tag's fleet handoff budget; false once spent.
  [[nodiscard]] bool take_handoff(const tags::Tag* tag);
  /// Pushes a handed-off tag into `reader`'s active set.
  void rehome(std::size_t reader, const tags::Tag* tag);
  [[nodiscard]] std::size_t tag_index(const tags::Tag* tag) const noexcept {
    return static_cast<std::size_t>(tag - population_->tags().data());
  }

  const tags::TagPopulation* population_;
  DeploymentConfig config_;
  parallel::ThreadPool* pool_;
  std::size_t channels_;  ///< clamped
  std::size_t shards_;
  std::uint64_t rotation_;  ///< max readers per channel (deadline scale)
  std::string protocol_name_;
  PlacementRules rules_;
  std::vector<detail::ReaderRuntime> runtime_;
  fault::ReaderSupervisor supervisor_;
  /// Churn horizon per population tag (tag_index): the first tick its
  /// position can change, saturated at UINT32_MAX so a stored value never
  /// exceeds the true one; 0 = evaluate at the next scan. Allocated only
  /// when churn is on; reset to 0 whenever the tag arrives at a reader.
  std::vector<std::uint32_t> horizon_;
  /// Handoffs consumed per population tag (tag_index); allocated on the
  /// first handoff.
  std::vector<std::uint32_t> handoffs_used_;
  std::vector<ChannelReport> channels_state_;
  std::vector<std::size_t> scheduled_;  ///< per-channel reader, per tick
  std::vector<std::size_t> shard_begin_;  ///< shard -> first reader
  DeploymentReport report_;  ///< accumulating folds; moved out by finish()
  std::uint64_t tick_ = 0;
  double makespan_us_ = 0.0;
  bool finished_ = false;
};

/// Convenience: ticks a Deployment to completion and returns the report.
[[nodiscard]] DeploymentReport run_deployment(
    const tags::TagPopulation& population, const DeploymentConfig& config,
    parallel::ThreadPool* pool = nullptr);

}  // namespace rfid::core
