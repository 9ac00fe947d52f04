// Deployment simulator: hundreds of readers with overlapping interrogation
// zones, frequency-channel scheduling and continuous tag churn.
//
// The paper (Section II-A) assumes "the collision-free transmission
// schedule among the readers is established" and says nothing about how.
// This layer is that schedule, the one real sites run: R readers share C
// frequency channels, readers on the same channel take turns (time
// division within the channel) while readers on different channels
// interrogate concurrently (spatial parallelism across channels). C = 1 is
// pure time division (one shared channel), C = R is full spatial
// parallelism (RF-isolated zones), and everything in between is a
// dense-reader site. The zone partition itself is core::reader_of
// (core/multi_reader.hpp).
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
//     neither its zone nor its owner can change. Each reader keeps that
//     tick in a horizon column beside its tags' ID words (tags::TagSoA)
//     and re-evaluates a tag only once it has come: the scan's cost
//     follows churn events, not active tags x ticks. A scan lists its due
//     tags in one compare-and-compress pass, evaluates them a block at a
//     time (PlacementRules::evaluate_churn) and erases the ones that left
//     in one order-preserving pass. Placement sets every
//     horizon to a log-free lower bound on the tag's first event, a churn
//     move hands the tag's next event to its new reader, and a fault
//     handoff stores 0, a full evaluation at the next scan.
//
//   * Reader faults. The PR-8 supervision machinery (fault::
//     ReaderSupervisor, per-reader fault streams, bounded handoff budgets)
//     plugs in unchanged; deadline- and backoff-valued supervisor knobs
//     are scaled by the channel rotation length so a reader that only
//     transmits every R/C ticks is not declared dead for obeying the
//     schedule.
//
// Scale & determinism. The tick loop splits into a parallel phase — every
// execution shard (a contiguous reader range) runs its scheduled readers'
// rounds and churn scans one after another, touching only reader-local
// state and the shard's one round policy and protocols::RoundScratch — and
// a serial merge phase that applies supervision, handoffs and report folds
// in reader index order. All cross-reader mutation is serial and
// reader-ordered, so a run is byte-identical serial vs RFID_THREADS=N and
// invariant to the shard count. Round buffers are per shard, not per
// reader or incarnation: a serial HPP or TPP drain allocates fewer times
// than it has readers, on the clean and the per-poll path, and its
// fault-free ticks allocate nothing once the shard's buffers have grown
// (both gated by tests/test_alloc_guard.cpp). A long-running
// daemon strings drains into epochs with core::DeploymentEpochs
// (core/epochs.hpp). See docs/fleet.md and docs/architecture.md
// ("Deployment simulator").
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
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

namespace rfid::protocols {
class RoundPolicy;
struct RoundScratch;
}  // namespace rfid::protocols

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
  /// The total hazard (departure plus move) is 0 or in [1e-12, 1): below
  /// 1e-12 an event tick can pass 2^64, so such a config is rejected.
  double churn_depart_per_tick = 0.0;
  /// Per-tag, per-tick zone-move hazard (goods relocating; each observed
  /// move rehomes the tag to its new owner, consuming handoff budget).
  /// Its sum with churn_depart_per_tick must be 0 or in [1e-12, 1).
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
  /// Execution shards (contiguous reader ranges run as one pool task, each
  /// with one round scratch). 0 = one shard per pool worker (1 when
  /// serial). Results are invariant to this knob; it only controls
  /// parallel grain and how many round scratches are kept.
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

/// What a churn scan at a tick finds of a tag, from its home zone: that it
/// has departed, or else its owner (owner_in_zone of its churn position's
/// zone) and its churn position's next_event_at.
struct ChurnOutcome final {
  std::uint64_t next_event_at;  ///< UINT64_MAX once departed
  std::uint32_t owner;          ///< 0 once departed
  bool departed;
};

/// The placement and churn rules above over a tag's ID words (see
/// core::id_words and tags::TagSoA), with every per-config constant derived
/// once: the overlap key, the churn keys of events 0 and 1 and the
/// hazard's log-survival. reader_of, owner_in_zone and churn_position are
/// thin wrappers over these forms, the way tag_hash wraps tag_hash_words;
/// core::Deployment keeps one instance per sweep, so its churn scan never
/// re-derives a key or dereferences a Tag. The per-zone ownership seeds
/// are the batch forms' argument, not a member, so that constructing an
/// instance stays cheap for the wrappers.
class PlacementRules final {
 public:
  explicit PlacementRules(const DeploymentConfig& config) noexcept;

  /// The home zone (reader_of).
  [[nodiscard]] std::size_t home(IdWords id) const noexcept;
  [[nodiscard]] bool reaches_neighbor(IdWords id) const noexcept;
  /// Requires zone < readers.
  [[nodiscard]] std::size_t owner_in_zone(IdWords id,
                                          std::size_t zone) const noexcept;
  /// Every zone's ownership seed, indexed by zone: what owner_in_zone
  /// derives per call, for the batch forms below. Empty when no tag can
  /// reach a neighbour (one reader, or no overlap).
  [[nodiscard]] std::vector<std::uint64_t> ownership_seeds() const;
  /// owner_in_zone(id, home(id)) of every tag, into owners[0, tags.size()),
  /// given ownership_seeds(). The home and reach tests run first,
  /// branch-free over every tag; only the tags that reach a neighbour then
  /// take the ownership hashes. Requires readers < 2^31.
  void place(std::span<const tags::Tag> tags,
             std::span<const std::uint64_t> zone_seeds,
             std::uint32_t* owners) const;
  [[nodiscard]] ChurnPosition churn_position(IdWords id, std::size_t home_zone,
                                             std::uint64_t tick) const noexcept;
  /// Tags evaluate_churn hashes per simd::hash_words call, into rows on
  /// the stack.
  static constexpr std::size_t kChurnBlock = 256;
  /// For each i < n, the ChurnOutcome at `tick` of the tag with ID words
  /// (id_hi[i], id_lo[i]) from its home zone, into out[i], given
  /// ownership_seeds(): what home, churn_position and owner_in_zone give.
  /// One simd::hash_words call per block hashes each tag under the six
  /// keys its first two events need (home, overlap reach, and each event's
  /// wait and kind). A scalar pass then takes those events' steps from the
  /// ready hashes, and a tag whose third event is due by `tick` walks on
  /// from there, as churn_position does.
  void evaluate_churn(const std::uint64_t* id_hi, const std::uint64_t* id_lo,
                      std::size_t n, std::uint64_t tick,
                      std::span<const std::uint64_t> zone_seeds,
                      ChurnOutcome* out) const;
  /// For each i < n, a lower bound on the tick of the first churn event of
  /// the tag with ID words (id_hi[i], id_lo[i]), strictly below
  /// churn_position(id, z, 0).next_event_at for every zone z, found
  /// without a log, into floors[i]. 0 when no hazard is set.
  void first_event_floors(const std::uint64_t* id_hi,
                          const std::uint64_t* id_lo, std::uint32_t* floors,
                          std::size_t n) const;

 private:
  /// The rows of evaluate_churn's hashes, in the order of keys_.
  enum Row : std::size_t {
    kHome,   ///< the partition hash (home)
    kReach,  ///< the overlap draw (reaches_neighbor)
    kWait0,  ///< event 0's interarrival draw
    kKind0,  ///< event 0's depart-or-move draw
    kWait1,
    kKind1,
    kRows,
  };

  /// The key of event `event`'s interarrival hash (kind 0) or its
  /// depart-or-move hash (kind 1).
  [[nodiscard]] std::uint64_t event_key(std::uint64_t event,
                                        std::uint64_t kind) const noexcept;
  /// One event of a tag's churn walk, the one step the walk and
  /// evaluate_churn share. `at` is the tick of the event before it (0
  /// before event 0). The event fires at the tick its wait hash gives; if
  /// that is past `tick` it becomes next_event_at and the walk stops.
  /// Otherwise it departs or moves the tag by its kind hash, which
  /// kind_hash() yields only then. Returns whether the walk goes on.
  template <typename KindHash>
  bool step(ChurnPosition& position, std::uint64_t& at,
            std::uint64_t wait_hash, KindHash kind_hash,
            std::uint64_t tick) const noexcept;
  /// The walk from event `event` on, `at` being the tick of the one before.
  void walk(ChurnPosition& position, IdWords id, std::uint64_t event,
            std::uint64_t at, std::uint64_t tick) const noexcept;

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
  /// The floors' slope: (1 - 2^-40) / -log_survive_ rounded down and
  /// capped at UINT32_MAX; 0 with no hazard.
  std::uint64_t floor_slope_;
  /// The key of each Row.
  std::array<std::uint64_t, kRows> keys_;
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
  void fold_session(detail::ReaderRuntime& rt);
  void build_session(std::size_t reader, detail::ReaderRuntime& rt);
  /// Fills every reader's active set with the tags it owns at tick 0.
  void place();
  [[nodiscard]] bool churns() const noexcept {
    return config_.churn_depart_per_tick + config_.churn_move_per_tick > 0.0;
  }
  void run_reader_parallel(std::size_t reader, detail::ReaderRuntime& rt,
                           std::size_t shard);
  void churn_scan(std::size_t reader, detail::ReaderRuntime& rt,
                  std::vector<std::uint32_t>& due);
  /// Consumes one unit of the tag's fleet handoff budget; false once spent.
  [[nodiscard]] bool take_handoff(const tags::Tag* tag);
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
  /// Round policy and round scratch per execution shard: its readers run
  /// one after another inside one task, so no two threads ever share a
  /// buffer, and a policy keeps nothing from one round to the next.
  std::vector<std::unique_ptr<protocols::RoundPolicy>> policy_;
  std::vector<protocols::RoundScratch> scratch_;
  /// The churn scan's scratch per execution shard: the due positions of
  /// the reader it scans, then, in their first entries, the leaving ones.
  /// Sized at placement to the shard's largest share.
  std::vector<std::vector<std::uint32_t>> due_;
  /// PlacementRules::ownership_seeds(), derived once.
  std::vector<std::uint64_t> zone_seeds_;
  std::vector<detail::ReaderRuntime> runtime_;
  fault::ReaderSupervisor supervisor_;
  /// The horizon a fault handoff stores (tags::TagSoA::horizon): due at
  /// every scan, so the receiving reader evaluates the tag in full.
  static constexpr std::uint32_t kArrived = 0;
  /// Handoffs consumed per population tag (tag_index); sized at
  /// construction when churn is on, since every churning drain hands tags
  /// off, and otherwise on the first handoff.
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
