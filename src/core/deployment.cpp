#include "core/deployment.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "core/multi_reader.hpp"
#include "fault/injector.hpp"
#include "fault/recovery.hpp"
#include "protocols/hash_polling.hpp"
#include "protocols/round_engine.hpp"
#include "protocols/tree_polling.hpp"
#include "sim/verify.hpp"
#include "tags/soa.hpp"

namespace rfid::core {

namespace {

/// Salt under partition_seed for the per-tag overlap draw, so reachability
/// and zone assignment come from independent streams of the same knob.
constexpr std::uint64_t kOverlapSalt = 0x4F564C50;  // "OVLP"
/// Salt under the session seed for the per-reader fault streams, keeping
/// them independent of every reader's protocol stream.
constexpr std::uint64_t kReaderFaultSalt = 0x52465446;  // "RFTF"

/// Maps a 64-bit hash to (0, 1] — never 0, so log(u) is always finite.
double hash_unit(std::uint64_t h) noexcept {
  return static_cast<double>((h >> 11) + 1) * 0x1.0p-53;
}

std::unique_ptr<protocols::RoundPolicy> make_deployment_policy(
    protocols::ProtocolKind kind) {
  switch (kind) {
    case protocols::ProtocolKind::kHpp:
      return std::make_unique<protocols::HppRoundPolicy>(
          protocols::HppRoundConfig{});
    case protocols::ProtocolKind::kTpp:
      return std::make_unique<protocols::TppRoundPolicy>(
          protocols::Tpp::Config{});
    default:
      throw std::invalid_argument(
          "Deployment: only round-engine protocols (HPP, TPP) can be "
          "scheduled tick by tick");
  }
}

/// A reader that only holds the channel every `rotation` ticks completes
/// rounds `rotation`× slower than one that transmits every tick (C = R); the
/// supervisor's silence deadlines and restart backoffs stretch by the same
/// factor so schedule-obedient readers are never declared dead.
fault::SupervisorConfig scale_supervisor(fault::SupervisorConfig config,
                                         std::uint64_t rotation) {
  config.degraded_after_ticks *= rotation;
  config.down_after_ticks *= rotation;
  config.backoff_initial_ticks *= rotation;
  config.backoff_max_ticks *= rotation;
  return config;
}

/// Marks, in PlacementRules::place's first pass, a tag that reaches the
/// neighbour of its home zone.
constexpr std::uint32_t kReachesFlag = std::uint32_t{1} << 31;

/// The owner of a tag that both `zone` and `alt` reach, given each zone's
/// ownership seed: the smaller keyed hash of the ID, ties to the lower
/// index.
std::size_t pick_owner(IdWords id, std::size_t zone, std::uint64_t zone_seed,
                       std::size_t alt, std::uint64_t alt_seed) noexcept {
  const std::uint64_t zone_key = tag_hash_words(zone_seed, id.hi, id.lo);
  const std::uint64_t alt_key = tag_hash_words(alt_seed, id.hi, id.lo);
  if (alt_key != zone_key) return alt_key < zone_key ? alt : zone;
  return std::min(zone, alt);
}

/// A tick as a churn-horizon entry: saturated at UINT32_MAX, so a stored
/// horizon is never later than the true one.
std::uint32_t saturated_tick(std::uint64_t tick) noexcept {
  return static_cast<std::uint32_t>(std::min<std::uint64_t>(tick, UINT32_MAX));
}

/// Contract checks run here, in the config_ member initializer, so they
/// fire before any member (the supervisor in particular) could reject the
/// same config with a less precise error.
DeploymentConfig validated(DeploymentConfig config) {
  RFID_EXPECTS(config.readers >= 1);
  RFID_EXPECTS(config.zone_overlap >= 0.0 && config.zone_overlap <= 1.0);
  RFID_EXPECTS(config.churn_depart_per_tick >= 0.0 &&
               config.churn_depart_per_tick < 1.0);
  RFID_EXPECTS(config.churn_move_per_tick >= 0.0 &&
               config.churn_move_per_tick < 1.0);
  const double hazard =
      config.churn_depart_per_tick + config.churn_move_per_tick;
  RFID_EXPECTS(hazard < 1.0);
  // An event tick reaches 36.7 / hazard (the largest -log of a wait draw
  // over the hazard), which passes 2^64 below about 2e-18.
  RFID_EXPECTS(hazard == 0.0 || hazard >= 1e-12);
  return config;
}

}  // namespace

// --- Pure schedule / placement rules ----------------------------------------

std::size_t channel_population(std::size_t channel, std::size_t readers,
                               std::size_t channels) {
  RFID_EXPECTS(channels >= 1 && channel < channels);
  return channel < readers ? (readers - channel - 1) / channels + 1 : 0;
}

std::size_t scheduled_reader(std::size_t channel, std::size_t readers,
                             std::size_t channels, std::uint64_t tick) {
  const std::size_t members = channel_population(channel, readers, channels);
  RFID_EXPECTS(members >= 1 && tick >= 1);
  return channel +
         channels * static_cast<std::size_t>((tick - 1) % members);
}

std::size_t owner_in_zone(const TagId& id, std::size_t zone,
                          const DeploymentConfig& config) {
  RFID_EXPECTS(config.readers >= 1 && zone < config.readers);
  return PlacementRules(config).owner_in_zone(id_words(id), zone);
}

ChurnPosition churn_position(const TagId& id, std::size_t home_zone,
                             std::uint64_t tick,
                             const DeploymentConfig& config) {
  return PlacementRules(config).churn_position(id_words(id), home_zone, tick);
}

PlacementRules::PlacementRules(const DeploymentConfig& config) noexcept
    : readers_(config.readers),
      partition_seed_(config.partition_seed),
      zone_overlap_(config.zone_overlap),
      overlap_key_(derive_seed(config.partition_seed, kOverlapSalt)),
      ownership_seed_(config.ownership_seed),
      churn_seed_(config.churn_seed),
      depart_(config.churn_depart_per_tick),
      hazard_(config.churn_depart_per_tick + config.churn_move_per_tick),
      log_survive_(std::log1p(-std::min(hazard_, 0.9999999999))),
      floor_slope_(hazard_ > 0.0
                       ? static_cast<std::uint64_t>(std::min(
                             (1.0 - 0x1p-40) / -log_survive_, 0x1p32 - 1.0))
                       : 0),
      keys_{partition_seed_, overlap_key_, derive_seed(churn_seed_, 0),
            derive_seed(churn_seed_, 1), derive_seed(churn_seed_, 2),
            derive_seed(churn_seed_, 3)} {}

std::uint64_t PlacementRules::event_key(std::uint64_t event,
                                        std::uint64_t kind) const noexcept {
  return event < 2 ? keys_[kWait0 + 2 * event + kind]
                   : derive_seed(churn_seed_, (event << 1) | kind);
}

std::size_t PlacementRules::home(IdWords id) const noexcept {
  return reader_of_words(id, readers_, partition_seed_);
}

bool PlacementRules::reaches_neighbor(IdWords id) const noexcept {
  if (zone_overlap_ <= 0.0) return false;
  if (zone_overlap_ >= 1.0) return true;
  return hash_unit(tag_hash_words(overlap_key_, id.hi, id.lo)) < zone_overlap_;
}

std::size_t PlacementRules::owner_in_zone(IdWords id,
                                          std::size_t zone) const noexcept {
  if (readers_ == 1 || !reaches_neighbor(id)) return zone;
  const std::size_t alt = (zone + 1) % readers_;
  return pick_owner(id, zone, derive_seed(ownership_seed_, zone), alt,
                    derive_seed(ownership_seed_, alt));
}

std::vector<std::uint64_t> PlacementRules::ownership_seeds() const {
  std::vector<std::uint64_t> seeds;
  if (readers_ == 1 || zone_overlap_ <= 0.0) return seeds;
  seeds.resize(readers_);
  for (std::size_t z = 0; z < readers_; ++z)
    seeds[z] = derive_seed(ownership_seed_, z);
  return seeds;
}

void PlacementRules::place(std::span<const tags::Tag> tags,
                           std::span<const std::uint64_t> zone_seeds,
                           std::uint32_t* owners) const {
  RFID_EXPECTS(readers_ < kReachesFlag);
  // Pass 1 has no data-dependent branch, so the hashes of neighbouring
  // tags overlap; a reach test branch per tag would stall on every
  // mispredicted overlap draw.
  const bool overlap = readers_ > 1 && zone_overlap_ > 0.0;
  for (std::size_t i = 0; i < tags.size(); ++i) {
    const IdWords id = id_words(tags[i].id());
    const bool reaches = overlap && reaches_neighbor(id);
    owners[i] =
        static_cast<std::uint32_t>(home(id)) | (reaches ? kReachesFlag : 0);
  }
  if (!overlap) return;
  // Pass 2: ownership for the flagged tags.
  for (std::size_t i = 0; i < tags.size(); ++i) {
    if ((owners[i] & kReachesFlag) == 0) continue;
    const std::size_t zone = owners[i] & ~kReachesFlag;
    const std::size_t alt = (zone + 1) % readers_;
    owners[i] = static_cast<std::uint32_t>(
        pick_owner(id_words(tags[i].id()), zone, zone_seeds[zone], alt,
                   zone_seeds[alt]));
  }
}

template <typename KindHash>
bool PlacementRules::step(ChurnPosition& position, std::uint64_t& at,
                          std::uint64_t wait_hash, KindHash kind_hash,
                          std::uint64_t tick) const noexcept {
  // Geometric interarrivals by inverse CDF over pure per-event hash draws:
  // event k's tick depends only on (churn_seed, id, k), never on mutable
  // RNG state, so the walk replays identically from any schedule or shard.
  at += 1 + static_cast<std::uint64_t>(std::log(hash_unit(wait_hash)) /
                                       log_survive_);
  if (at > tick) {
    position.next_event_at = at;
    return false;
  }
  const std::uint64_t kind = kind_hash();
  if (hash_unit(kind) * hazard_ <= depart_) {
    position.departed = true;
    position.departed_at = at;
    return false;  // departure is absorbing
  }
  ++position.moves;
  if (readers_ > 1) {
    const std::size_t stride =
        1 + static_cast<std::size_t>((kind >> 8) % (readers_ - 1));
    position.zone = (position.zone + stride) % readers_;
  }
  return true;
}

void PlacementRules::walk(ChurnPosition& position, IdWords id,
                          std::uint64_t event, std::uint64_t at,
                          std::uint64_t tick) const noexcept {
  for (;; ++event) {
    const auto kind = [&] {
      return tag_hash_words(event_key(event, 1), id.hi, id.lo);
    };
    if (!step(position, at, tag_hash_words(event_key(event, 0), id.hi, id.lo),
              kind, tick))
      return;
  }
}

ChurnPosition PlacementRules::churn_position(
    IdWords id, std::size_t home_zone, std::uint64_t tick) const noexcept {
  ChurnPosition position;
  position.zone = home_zone;
  if (hazard_ > 0.0) walk(position, id, 0, 0, tick);
  return position;
}

void PlacementRules::evaluate_churn(const std::uint64_t* id_hi,
                                    const std::uint64_t* id_lo, std::size_t n,
                                    std::uint64_t tick,
                                    std::span<const std::uint64_t> zone_seeds,
                                    ChurnOutcome* out) const {
  // One block's hashes, a row of len per key (Row): 12 KB, still in L1
  // when the scalar pass reads them.
  std::array<std::uint64_t, kRows * kChurnBlock> hashes;
  const bool overlap = readers_ > 1 && zone_overlap_ > 0.0;
  for (std::size_t begin = 0; begin < n; begin += kChurnBlock) {
    const std::size_t len = std::min(kChurnBlock, n - begin);
    simd::hash_words(keys_.data(), kRows, id_hi + begin, id_lo + begin,
                     hashes.data(), len, simd::best_backend());
    const auto row = [&hashes, len](Row r, std::size_t j) {
      return hashes[r * len + j];
    };
    for (std::size_t j = 0; j < len; ++j) {
      ChurnPosition position;
      position.zone = static_cast<std::size_t>(row(kHome, j) % readers_);
      const std::uint64_t kind0 = row(kKind0, j);
      const std::uint64_t kind1 = row(kKind1, j);
      std::uint64_t at = 0;
      if (hazard_ > 0.0 &&
          step(position, at, row(kWait0, j), [=] { return kind0; }, tick) &&
          step(position, at, row(kWait1, j), [=] { return kind1; }, tick))
        walk(position, {id_hi[begin + j], id_lo[begin + j]}, 2, at, tick);
      ChurnOutcome& outcome = out[begin + j];
      if (position.departed) {
        outcome = ChurnOutcome{UINT64_MAX, 0, true};
        continue;
      }
      std::size_t owner = position.zone;
      if (overlap && (zone_overlap_ >= 1.0 ||
                      hash_unit(row(kReach, j)) < zone_overlap_)) {
        const std::size_t alt = (owner + 1) % readers_;
        owner = pick_owner({id_hi[begin + j], id_lo[begin + j]}, owner,
                           zone_seeds[owner], alt, zone_seeds[alt]);
      }
      outcome = ChurnOutcome{position.next_event_at,
                             static_cast<std::uint32_t>(owner), false};
    }
  }
}

void PlacementRules::first_event_floors(const std::uint64_t* id_hi,
                                        const std::uint64_t* id_lo,
                                        std::uint32_t* floors,
                                        std::size_t n) const {
  // Event 0 fires at 1 + trunc(-ln u / -log_survive_) (churn_position),
  // where u = ((w >> 11) + 1) 2^-53 is the wait draw of the tag's event-0
  // hash w. hash_indices at h = 32 leaves t = w >> 32, and u <= (t + 1)
  // 2^-32, so 1 - u >= (2^32 - 1 - t) 2^-32. As -ln u >= 1 - u on (0, 1],
  // ((2^32 - 1 - t) * slope) >> 32 is at most -ln u / -log_survive_ for
  // any slope up to (1 - 2^-40) / -log_survive_, and so strictly below
  // that tick. The 2^-40 margin is about 2^11 times the combined rounding
  // of std::log and the two divisions, so the bound holds in floating
  // point too. The slope's cap keeps the product in 64 bits and the floor
  // in 32, the width of a horizon.
  simd::hash_indices(keys_[kWait0], id_hi, id_lo, floors, n, 32,
                     simd::best_backend());
  for (std::size_t i = 0; i < n; ++i)
    floors[i] = static_cast<std::uint32_t>(
        (std::uint64_t{UINT32_MAX - floors[i]} * floor_slope_) >> 32);
}

// --- Reader runtime ---------------------------------------------------------

namespace detail {

/// A tag a churn scan found owned by another reader, with the horizon it
/// takes there: the tick of its next event.
struct ChurnMove final {
  const tags::Tag* tag;
  std::uint32_t target;
  std::uint32_t horizon;
};

/// One reader's runtime. The session stack is rebuilt on every crash or
/// reboot; the active tag set survives restarts and moves wholesale on
/// handoff (tag pointers stay valid — every session is built over the one
/// shared population). A round's engine is built on the stack over the
/// shard's RoundScratch and runs the shard's policy, so nothing here holds
/// a round buffer. The parallel-phase output slots at the bottom are
/// written only by this reader's shard task and consumed by the serial
/// merge, which is what keeps pooled runs byte-identical to serial ones.
struct ReaderRuntime final {
  std::unique_ptr<sim::Session> session;
  fault::RecoveryCoordinator recovery;
  tags::TagSoA active;
  fault::FaultInjector faults;  ///< reader-fault stream only
  sim::Metrics folded{};        ///< finished incarnations, merged in order
  std::size_t delivered = 0;
  std::uint64_t incarnations = 0;
  std::uint64_t stalled_until = 0;  ///< ticks < this are skipped (stall)
  bool rebuilt_this_tick = false;   ///< reboot consumed the tick
  bool scheduled = false;           ///< holds its channel this tick

  // --- Parallel-phase outputs (reader-local; merged serially) ---------------
  std::optional<fault::ReaderFaultEvent> fault_event;
  bool round_ran = false;
  bool round_completed = false;  ///< init delivered -> supervisor heartbeat
  bool heartbeat = false;        ///< scheduled with a drained zone
  double round_time_us = 0.0;
  std::size_t round_delivered = 0;
  std::vector<ChurnMove> moved;  ///< churn: tags owned elsewhere now
  std::vector<TagId> departed;   ///< churn: left before being read

  explicit ReaderRuntime(const fault::RecoveryConfig& recovery_config)
      : recovery(recovery_config) {}
};

}  // namespace detail

// --- Deployment -------------------------------------------------------------

Deployment::Deployment(const tags::TagPopulation& population,
                       DeploymentConfig config, parallel::ThreadPool* pool)
    : population_(&population),
      config_(validated(std::move(config))),
      pool_(pool),
      channels_(std::min(std::max<std::size_t>(config_.channels, 1),
                         std::max<std::size_t>(config_.readers, 1))),
      shards_(config_.shards != 0
                  ? std::min(config_.shards,
                             std::max<std::size_t>(config_.readers, 1))
                  : (pool_ != nullptr
                         ? std::min<std::size_t>(
                               pool_->thread_count(),
                               std::max<std::size_t>(config_.readers, 1))
                         : 1)),
      rotation_(channel_population(0,
                                   std::max<std::size_t>(config_.readers, 1),
                                   channels_)),
      protocol_name_(protocols::to_string(config_.kind)),
      rules_(config_),
      zone_seeds_(rules_.ownership_seeds()),
      supervisor_(config_.readers,
                  scale_supervisor(config_.supervisor, rotation_)) {
  runtime_.reserve(config_.readers);
  for (std::size_t r = 0; r < config_.readers; ++r) {
    runtime_.emplace_back(config_.session.recovery);
    build_session(r, runtime_[r]);
    runtime_[r].faults.arm_reader_faults(
        config_.reader_faults,
        derive_seed(derive_seed(config_.session.seed, kReaderFaultSalt), r));
  }

  // Shard boundaries: contiguous reader ranges, one pool task each, each
  // with the round policy and round scratch its readers take turns on.
  shard_begin_.resize(shards_ + 1);
  for (std::size_t s = 0; s <= shards_; ++s)
    shard_begin_[s] = s * config_.readers / shards_;
  for (std::size_t s = 0; s < shards_; ++s)
    policy_.push_back(make_deployment_policy(config_.kind));
  scratch_.resize(shards_);
  due_.resize(shards_);

  place();

  channels_state_.resize(channels_);
  for (std::size_t c = 0; c < channels_; ++c)
    channels_state_[c].readers =
        channel_population(c, config_.readers, channels_);
  scheduled_.resize(channels_);
  if (churns()) handoffs_used_.assign(population_->size(), 0);
}

Deployment::~Deployment() = default;

// Initial placement, serial at any shard count, as a counting sort.
// Each tag's owner is computed once (PlacementRules::place), each
// reader's share is sized once, each reader's slots receive the
// population positions of its tags in population order, and each reader
// then gathers its tags from them (TagSoA::gather). A reader thus holds
// its tags in population order. Its columns get the capacity push_back
// growth would have reached, so a drain's first handoffs into a reader
// that has not yet run a round do not reallocate them. With churn on, a
// reader's horizons are its tags' first-event floors, set in one batch
// while its ID words are still in cache: before its first event a placed
// tag sits in its home zone, owned by this reader. Each shard's churn
// scratch gets the same capacity as its largest reader's columns.
void Deployment::place() {
  const std::span<const tags::Tag> tags = population_->tags();
  const std::size_t n = tags.size();
  const std::size_t readers = config_.readers;
  RFID_EXPECTS(n < UINT32_MAX);
  // One scratch allocation: each tag's owner, then each reader's share,
  // which becomes its fill cursor.
  std::vector<std::uint32_t> scratch(n + readers, 0);
  std::uint32_t* const owner = scratch.data();
  std::uint32_t* const next = owner + n;
  rules_.place(tags, zone_seeds_, owner);
  for (std::size_t i = 0; i < n; ++i) ++next[owner[i]];
  for (std::size_t r = 0; r < readers; ++r) {
    tags::TagSoA& active = runtime_[r].active;
    if (churns()) active.carry_horizons();
    if (next[r] > 0) active.reserve(std::bit_ceil(std::size_t{next[r]}));
    active.resize(next[r]);
    next[r] = 0;
  }
  for (std::size_t i = 0; i < n; ++i)
    runtime_[owner[i]].active.set_slot(next[owner[i]]++,
                                       static_cast<std::uint32_t>(i));
  for (std::size_t r = 0; r < readers; ++r) {
    tags::TagSoA& active = runtime_[r].active;
    active.gather(tags);
    if (active.carries_horizons())
      rules_.first_event_floors(active.id_hi_data(), active.id_lo_data(),
                                active.horizon_data(), active.size());
  }
  if (!churns()) return;
  for (std::size_t s = 0; s < shards_; ++s) {
    std::size_t largest = 0;
    for (std::size_t r = shard_begin_[s]; r < shard_begin_[s + 1]; ++r)
      largest = std::max(largest, runtime_[r].active.size());
    if (largest > 0) due_[s].resize(std::bit_ceil(largest));
  }
}

void Deployment::build_session(std::size_t reader,
                               detail::ReaderRuntime& rt) {
  sim::SessionConfig session_config = config_.session;
  // Incarnation in the seed: a rebooted reader is a new physical boot, so
  // its protocol stream must not replay the dead one's draws.
  session_config.seed = derive_seed(
      derive_seed(config_.session.seed, reader), rt.incarnations);
  rt.session =
      std::make_unique<sim::Session>(*population_, std::move(session_config));
  ++rt.incarnations;
}

void Deployment::fold_session(detail::ReaderRuntime& rt) {
  if (rt.session == nullptr) return;
  sim::RunResult result = rt.session->finish(protocol_name_);
  rt.folded.merge(result.metrics);
  for (sim::CollectedRecord& record : result.records)
    report_.records.push_back(std::move(record));
  for (const TagId& id : result.missing_ids)
    report_.missing_ids.push_back(id);
  for (const TagId& id : result.undelivered_ids)
    report_.undelivered_ids.push_back(id);
  rt.session.reset();
}

void Deployment::run_reader_parallel(std::size_t reader,
                                     detail::ReaderRuntime& rt,
                                     std::size_t shard) {
  rt.fault_event.reset();
  rt.round_ran = false;
  rt.round_completed = false;
  rt.heartbeat = false;
  rt.round_time_us = 0.0;
  rt.round_delivered = 0;
  rt.moved.clear();
  rt.departed.clear();

  if (rt.rebuilt_this_tick) return;  // the reboot consumed the tick
  if (supervisor_.permanently_down(reader)) return;
  if (supervisor_.health(reader) == obs::ReaderHealth::kDown) return;
  if (tick_ < rt.stalled_until) return;  // mid-stall: silent
  // Fault draws happen at the tick boundary, before the round, so a round
  // either runs to completion or not at all — delivered work is never
  // torn, which is what keeps delivered-or-listed accounting exact. The
  // draw itself only touches this reader's dedicated stream, so it is
  // safe (and deterministic) inside the parallel phase.
  rt.fault_event = rt.faults.sample_reader_fault();
  if (rt.fault_event.has_value()) return;
  if (!rt.scheduled) return;  // another co-channel reader holds the RF slot

  // Zone scan at the reader's own transmit slot, before the round, so a
  // tag that left at tick t is never interrogated at tick >= t.
  if (rt.active.carries_horizons() && !rt.active.empty())
    churn_scan(reader, rt, due_[shard]);

  if (rt.active.empty()) {
    // Zone drained: the reader idles but still answers its heartbeat.
    rt.heartbeat = true;
    return;
  }

  const std::size_t before = rt.active.size();
  const sim::Metrics& live = rt.session->metrics();
  const double time_before = live.time_us;
  const std::uint64_t undelivered_before = live.undelivered;
  const std::uint64_t missing_before = live.missing;
  protocols::RoundEngine engine(*rt.session, rt.recovery, scratch_[shard]);
  rt.round_completed = engine.run_round(rt.active, *policy_[shard]);
  rt.round_ran = true;
  rt.round_time_us = live.time_us - time_before;
  // Erased = delivered + abandoned + detected-missing; subtract the loud
  // outcomes so `delivered` counts exactly the interrogated tags even in
  // record-free sweeps.
  rt.round_delivered = before - rt.active.size() -
                       static_cast<std::size_t>(live.undelivered -
                                                undelivered_before) -
                       static_cast<std::size_t>(live.missing - missing_before);
}

// Departed tags leave the active set (listed missing at the merge); tags
// now owned elsewhere queue for handoff to their new owner. Three batch
// passes: one compare-and-compress over the horizon column lists the due
// positions; PlacementRules::evaluate_churn evaluates their tags a block at
// a time, from ID words staged on the stack; and one order-preserving
// erase removes the leaving ones, whose positions overwrite the front of
// the due list as they are found. A tag that stays stores its next event
// tick as its new horizon. A horizon is never later than the tag's next
// event (see place() and the merge in tick()), so a tag the scan skips
// cannot have moved or left.
void Deployment::churn_scan(std::size_t reader, detail::ReaderRuntime& rt,
                            std::vector<std::uint32_t>& due) {
  const std::size_t n = rt.active.size();
  if (due.size() < n) due.resize(n);
  const simd::Backend backend = simd::best_backend();
  // A horizon fits 32 bits, so the saturated tick compares the same way.
  const std::uint64_t now = tick_;
  std::uint32_t* const horizon = rt.active.horizon_data();
  const std::size_t due_count =
      simd::due_positions(horizon, n, saturated_tick(now), due.data(), backend);
  constexpr std::size_t kBlock = PlacementRules::kChurnBlock;
  std::array<std::uint64_t, kBlock> id_hi;
  std::array<std::uint64_t, kBlock> id_lo;
  std::array<ChurnOutcome, kBlock> outcome;
  std::size_t leaving = 0;
  for (std::size_t begin = 0; begin < due_count; begin += kBlock) {
    const std::uint32_t* const position = due.data() + begin;
    const std::size_t len = std::min(kBlock, due_count - begin);
    for (std::size_t j = 0; j < len; ++j) {
      id_hi[j] = rt.active.id_hi(position[j]);
      id_lo[j] = rt.active.id_lo(position[j]);
    }
    rules_.evaluate_churn(id_hi.data(), id_lo.data(), len, now, zone_seeds_,
                          outcome.data());
    // leaving <= begin + j: each write lands on an entry already read.
    for (std::size_t j = 0; j < len; ++j) {
      const std::uint32_t i = position[j];
      if (outcome[j].departed) {
        rt.departed.push_back(rt.active.tag(i)->id());
      } else if (outcome[j].owner != reader) {
        rt.moved.push_back({rt.active.tag(i), outcome[j].owner,
                            saturated_tick(outcome[j].next_event_at)});
      } else {
        horizon[i] = saturated_tick(outcome[j].next_event_at);
        continue;
      }
      due[leaving++] = i;
    }
  }
  if (leaving > 0) rt.active.erase(due.data(), leaving, backend);
}

bool Deployment::take_handoff(const tags::Tag* tag) {
  if (handoffs_used_.empty()) handoffs_used_.assign(population_->size(), 0);
  std::uint32_t& used = handoffs_used_[tag_index(tag)];
  if (used >= config_.handoff_budget) return false;
  ++used;
  return true;
}

void Deployment::apply_fault_event(std::size_t reader,
                                   detail::ReaderRuntime& rt) {
  switch (rt.fault_event->kind) {
    case fault::ReaderFaultKind::kCrash:
      fold_session(rt);
      supervisor_.note_crash(reader, tick_);
      hand_off(reader);
      break;
    case fault::ReaderFaultKind::kRestart:
      fold_session(rt);
      supervisor_.note_spontaneous_restart(reader, tick_);
      build_session(reader, rt);
      break;
    case fault::ReaderFaultKind::kStall:
      supervisor_.note_stall(reader);
      rt.stalled_until = tick_ + rt.fault_event->stall_ticks;
      break;
  }
}

void Deployment::hand_off(std::size_t from) {
  detail::ReaderRuntime& rt = runtime_[from];
  if (rt.active.empty()) return;
  // Ring fallback target, computed once: the next reader in ring order
  // that can still make progress.
  std::size_t ring = config_.readers;  // sentinel: none
  for (std::size_t step = 1; step < config_.readers; ++step) {
    const std::size_t candidate = (from + step) % config_.readers;
    if (supervisor_.permanently_down(candidate)) continue;
    if (supervisor_.health(candidate) == obs::ReaderHealth::kDown) continue;
    ring = candidate;
    break;
  }
  // Without a ring target every other reader is down, the overlap
  // neighbour of each tag included, so no tag can move: all of them wait
  // for this reader's restart or, if it will never come back, are given up
  // loudly. Otherwise every tag leaves, rehomed or given up.
  if (ring == config_.readers && !supervisor_.permanently_down(from)) return;
  const bool overlap = config_.zone_overlap > 0.0 && config_.readers > 1;
  std::size_t rehomed = 0;
  for (std::size_t i = 0; i < rt.active.size(); ++i) {
    const tags::Tag* tag = rt.active.tag(i);
    const IdWords id{rt.active.id_hi(i), rt.active.id_lo(i)};
    std::size_t target = ring;
    if (overlap && rules_.reaches_neighbor(id)) {
      // Prefer the other reader that can already hear the tag: of the
      // home-zone pair {z, z+1}, whichever is not the downed reader.
      const std::size_t home = rules_.home(id);
      const std::size_t next = (home + 1) % config_.readers;
      const std::size_t other = home == from ? next : home;
      if (other != from && !supervisor_.permanently_down(other) &&
          supervisor_.health(other) != obs::ReaderHealth::kDown)
        target = other;
    }
    if (target != config_.readers && take_handoff(tag)) {
      runtime_[target].active.push_back(tag, kArrived);
      ++rehomed;
    } else {
      report_.undelivered_ids.push_back(tag->id());
    }
  }
  rt.active.clear();
  report_.handoffs += rehomed;
}

// rfidlint: hotpath(deployment-serial-tick)
bool Deployment::tick() {
  RFID_EXPECTS(!finished_);
  bool any = false;
  for (const detail::ReaderRuntime& rt : runtime_)
    if (!rt.active.empty()) {
      any = true;
      break;
    }
  if (!any || tick_ >= config_.max_ticks) return false;
  ++tick_;

  // Serial pre-phase, reader order: due restarts rebuild their session and
  // consume the tick; the channel schedule is fixed for the tick.
  for (std::size_t r = 0; r < config_.readers; ++r) {
    detail::ReaderRuntime& rt = runtime_[r];
    rt.rebuilt_this_tick = false;
    rt.scheduled = false;
    if (supervisor_.permanently_down(r)) continue;
    if (supervisor_.health(r) == obs::ReaderHealth::kDown &&
        supervisor_.restart_due(r, tick_)) {
      supervisor_.begin_restart(r, tick_);
      // Deadline-downed readers (stall escalations) still hold their dead
      // incarnation's session — fold it so its delivered records survive
      // the reboot. Crash paths already folded; this is then a no-op.
      fold_session(rt);
      build_session(r, rt);
      rt.rebuilt_this_tick = true;
    }
  }
  for (std::size_t c = 0; c < channels_; ++c) {
    scheduled_[c] = scheduled_reader(c, config_.readers, channels_, tick_);
    runtime_[scheduled_[c]].scheduled = true;
  }

  // Parallel phase: every shard runs its readers' fault draws, churn scans
  // and scheduled rounds against reader-local state, one reader after
  // another on the shard's round policy and scratch. Serial ticks run the
  // same shard loop inline.
  const auto run_shard = [this](std::size_t s) {
    for (std::size_t r = shard_begin_[s]; r < shard_begin_[s + 1]; ++r)
      run_reader_parallel(r, runtime_[r], s);
  };
  if (pool_ != nullptr && shards_ > 1) {
    for (std::size_t s = 0; s < shards_; ++s)
      pool_->submit([run_shard, s] { run_shard(s); });
    pool_->wait_idle();
  } else {
    for (std::size_t s = 0; s < shards_; ++s) run_shard(s);
  }

  // Serial merge, reader index order: supervision verdicts, churn
  // handoffs, channel accounting. All cross-reader mutation happens here,
  // which is what makes pooled runs byte-identical to serial ones.
  double tick_busy_us = 0.0;
  for (std::size_t r = 0; r < config_.readers; ++r) {
    detail::ReaderRuntime& rt = runtime_[r];
    if (rt.fault_event.has_value()) {
      apply_fault_event(r, rt);
      continue;
    }
    if (rt.round_ran) {
      ChannelReport& channel = channels_state_[channel_of(r, channels_)];
      channel.busy_us += rt.round_time_us;
      ++channel.rounds;
      tick_busy_us = std::max(tick_busy_us, rt.round_time_us);
      rt.delivered += rt.round_delivered;
      if (rt.round_completed) supervisor_.note_round_complete(r, tick_);
    } else if (rt.heartbeat) {
      supervisor_.note_round_complete(r, tick_);
    }
    for (const TagId& id : rt.departed) {
      // rfidlint: allow(hotpath-alloc) — churn slow path, outside the fault-free zero-alloc contract
      report_.missing_ids.push_back(id);
      ++report_.churn_departures;
    }
    for (const detail::ChurnMove& move : rt.moved) {
      // The scan that found the move walked the tag up to its next event,
      // and its owner cannot change before then: that tick is a horizon
      // the new reader may keep as it is.
      if (take_handoff(move.tag)) {
        // rfidlint: allow(hotpath-alloc) — churn slow path, outside the fault-free zero-alloc contract
        runtime_[move.target].active.push_back(move.tag, move.horizon);
        ++report_.handoffs;
        ++report_.churn_moves;
      } else {
        // rfidlint: allow(hotpath-alloc) — budget-exhausted slow path, outside the fault-free zero-alloc contract
        report_.undelivered_ids.push_back(move.tag->id());
      }
    }
  }
  makespan_us_ += tick_busy_us;
  supervisor_.advance(tick_);
  // Escalations (silence -> down) surface here; their tags move now.
  for (std::size_t r = 0; r < config_.readers; ++r)
    if (supervisor_.health(r) == obs::ReaderHealth::kDown ||
        supervisor_.permanently_down(r))
      hand_off(r);
  return true;
}

DeploymentReport Deployment::finish() {
  RFID_EXPECTS(!finished_);
  finished_ = true;

  // Tick cap exhausted with work left: list every survivor, loudly.
  for (detail::ReaderRuntime& rt : runtime_) {
    for (std::size_t i = 0; i < rt.active.size(); ++i)
      report_.undelivered_ids.push_back(rt.active.tag(i)->id());
    rt.active.clear();
  }
  for (detail::ReaderRuntime& rt : runtime_) fold_session(rt);

  report_.ticks = tick_;
  report_.transitions = supervisor_.transitions();
  report_.per_channel = channels_state_;
  report_.per_reader_metrics.reserve(config_.readers);
  report_.per_reader_health.reserve(config_.readers);
  report_.per_reader_incarnations.reserve(config_.readers);
  report_.per_reader_delivered.reserve(config_.readers);
  for (std::size_t r = 0; r < config_.readers; ++r) {
    detail::ReaderRuntime& rt = runtime_[r];
    rt.folded.reader_crashes = supervisor_.crashes(r);
    rt.folded.reader_stalls = supervisor_.stalls(r);
    rt.folded.reader_restarts = supervisor_.restarts(r);
    report_.per_reader_metrics.push_back(rt.folded);
    report_.per_reader_health.push_back(supervisor_.health(r));
    report_.per_reader_incarnations.push_back(rt.incarnations);
    report_.per_reader_delivered.push_back(rt.delivered);
    report_.delivered += rt.delivered;
    report_.totals.merge(rt.folded);
  }
  report_.totals.handoffs = report_.handoffs;
  report_.makespan_s = makespan_us_ * 1e-6;
  report_.total_busy_s = report_.totals.time_us * 1e-6;

  // Delivered-or-listed verification. Record-free sweeps verify by exact
  // counts (every tag is owned by exactly one reader at any time and
  // leaves the simulation through exactly one of the three outcomes);
  // record-keeping sweeps additionally run sim::verify_accounted_once over
  // the lists: every listed ID is a population tag, no population position
  // is listed twice, and every record carries its tag's payload.
  bool exact = report_.delivered + report_.missing_ids.size() +
                   report_.undelivered_ids.size() ==
               population_->size();
  if (config_.session.keep_records) {
    exact = exact && report_.records.size() == report_.delivered &&
            sim::verify_accounted_once(*population_, report_.records,
                                       report_.missing_ids,
                                       report_.undelivered_ids)
                .ok;
  }
  report_.verified = exact;
  return std::move(report_);
}

// --- Live views -------------------------------------------------------------

std::size_t Deployment::reader_count() const noexcept {
  return config_.readers;
}
std::size_t Deployment::shard_count() const noexcept { return shards_; }

std::size_t Deployment::active_remaining() const {
  std::size_t remaining = 0;
  for (const detail::ReaderRuntime& rt : runtime_)
    remaining += rt.active.size();
  return remaining;
}

sim::Metrics Deployment::reader_metrics(std::size_t reader) const {
  const detail::ReaderRuntime& rt = runtime_[reader];
  sim::Metrics metrics = rt.folded;
  if (rt.session != nullptr) metrics.merge(rt.session->metrics());
  metrics.reader_crashes = supervisor_.crashes(reader);
  metrics.reader_stalls = supervisor_.stalls(reader);
  metrics.reader_restarts = supervisor_.restarts(reader);
  return metrics;
}

obs::ReaderHealth Deployment::reader_health(std::size_t reader) const {
  return supervisor_.health(reader);
}

double Deployment::channel_busy_us(std::size_t channel) const {
  return channels_state_[channel].busy_us;
}

std::uint64_t Deployment::channel_rounds(std::size_t channel) const {
  return channels_state_[channel].rounds;
}

std::uint64_t Deployment::handoffs() const noexcept {
  return report_.handoffs;
}

std::uint64_t Deployment::churn_departures() const noexcept {
  return report_.churn_departures;
}

DeploymentReport run_deployment(const tags::TagPopulation& population,
                                const DeploymentConfig& config,
                                parallel::ThreadPool* pool) {
  Deployment deployment(population, config, pool);
  while (deployment.tick()) {
  }
  return deployment.finish();
}

}  // namespace rfid::core
