#include "core/deployment.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/multi_reader.hpp"
#include "fault/injector.hpp"
#include "fault/recovery.hpp"
#include "protocols/hash_polling.hpp"
#include "protocols/round_engine.hpp"
#include "protocols/tree_polling.hpp"
#include "tags/soa.hpp"

namespace rfid::core {

namespace {

/// Salt under partition_seed for the per-tag overlap draw, so reachability
/// and zone assignment come from independent streams of the same knob.
constexpr std::uint64_t kOverlapSalt = 0x4F564C50;  // "OVLP"
/// Salt under the session seed for the per-reader fault streams — the
/// exact derivation the legacy fleet used, so a FleetConfig ported to the
/// deployment layer replays the same fault draws.
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
/// rounds `rotation`× slower than the legacy everyone-every-tick fleet; the
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
  RFID_EXPECTS(config.churn_depart_per_tick + config.churn_move_per_tick <
               1.0);
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

bool tag_reaches_neighbor(const TagId& id, double zone_overlap,
                          std::uint64_t partition_seed) {
  DeploymentConfig config;
  config.zone_overlap = zone_overlap;
  config.partition_seed = partition_seed;
  return PlacementRules(config).reaches_neighbor(id_words(id));
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
      first_wait_key_(derive_seed(config.churn_seed, 0)),
      first_kind_key_(derive_seed(config.churn_seed, 1)) {}

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
  const std::uint64_t zone_key =
      tag_hash_words(derive_seed(ownership_seed_, zone), id.hi, id.lo);
  const std::uint64_t alt_key =
      tag_hash_words(derive_seed(ownership_seed_, alt), id.hi, id.lo);
  if (alt_key != zone_key) return alt_key < zone_key ? alt : zone;
  return std::min(zone, alt);
}

ChurnPosition PlacementRules::churn_position(
    IdWords id, std::size_t home_zone, std::uint64_t tick) const noexcept {
  ChurnPosition position;
  position.zone = home_zone;
  if (hazard_ <= 0.0) return position;
  // Geometric interarrivals by inverse CDF over pure per-event hash draws:
  // event k's tick depends only on (churn_seed, id, k), never on mutable
  // RNG state, so the walk replays identically from any schedule or shard.
  std::uint64_t at = 0;
  for (std::uint64_t event = 0;; ++event) {
    const std::uint64_t wait_key =
        event == 0 ? first_wait_key_ : derive_seed(churn_seed_, event << 1);
    const double wait = hash_unit(tag_hash_words(wait_key, id.hi, id.lo));
    at += 1 + static_cast<std::uint64_t>(std::log(wait) / log_survive_);
    if (at > tick) {
      position.next_event_at = at;
      return position;
    }
    const std::uint64_t kind_key =
        event == 0 ? first_kind_key_
                   : derive_seed(churn_seed_, (event << 1) | 1);
    const std::uint64_t kind_hash = tag_hash_words(kind_key, id.hi, id.lo);
    if (hash_unit(kind_hash) * hazard_ <= depart_) {
      position.departed = true;
      position.departed_at = at;
      return position;  // departure is absorbing
    }
    ++position.moves;
    if (readers_ > 1) {
      const std::size_t step =
          1 + static_cast<std::size_t>((kind_hash >> 8) % (readers_ - 1));
      position.zone = (position.zone + step) % readers_;
    }
  }
}

// --- Reader runtime ---------------------------------------------------------

namespace detail {

/// One reader's runtime. The session stack is rebuilt on every crash or
/// reboot; the active tag set survives restarts and moves wholesale on
/// handoff (tag pointers stay valid — every session is built over the one
/// shared population). The parallel-phase output slots at the bottom are
/// written only by this reader's shard task and consumed by the serial
/// merge, which is what keeps pooled runs byte-identical to serial ones.
struct ReaderRuntime final {
  std::unique_ptr<sim::Session> session;
  std::unique_ptr<protocols::RoundPolicy> policy;
  std::unique_ptr<protocols::RoundEngine> engine;
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
  std::vector<const tags::Tag*> moved;  ///< churn: tags owned elsewhere now
  std::vector<std::uint32_t> moved_target;
  std::vector<TagId> departed;          ///< churn: left before being read
  std::vector<char> churn_done;         ///< compaction scratch
  tags::TagSoA keep_scratch;            ///< hand_off stay-put rebuilds

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

  // Shard boundaries: contiguous reader ranges, one pool task each.
  shard_begin_.resize(shards_ + 1);
  for (std::size_t s = 0; s <= shards_; ++s)
    shard_begin_[s] = s * config_.readers / shards_;

  // Initial placement: home zone by hash partition, then the ownership
  // rule for tags that overlap into the neighbor zone. Sharded over the
  // pool — each shard scans the population and keeps only its readers'
  // tags, so per-reader insertion order equals population order exactly
  // as in the serial pass (shard-count invariance by construction).
  const auto place_range = [this](std::size_t first_reader,
                                  std::size_t last_reader) {
    for (const tags::Tag& tag : *population_) {
      const IdWords id = id_words(tag.id());
      const std::size_t owner = rules_.owner_in_zone(id, rules_.home(id));
      if (owner >= first_reader && owner < last_reader)
        runtime_[owner].active.push_back(&tag);
    }
  };
  if (pool_ != nullptr && shards_ > 1) {
    for (std::size_t s = 0; s < shards_; ++s) {
      const std::size_t first = shard_begin_[s];
      const std::size_t last = shard_begin_[s + 1];
      pool_->submit([&place_range, first, last] { place_range(first, last); });
    }
    pool_->wait_idle();
  } else {
    place_range(0, config_.readers);
  }

  channels_state_.resize(channels_);
  for (std::size_t c = 0; c < channels_; ++c)
    channels_state_[c].readers =
        channel_population(c, config_.readers, channels_);
  scheduled_.resize(channels_);
  // Zeroed: every tag's first evaluation stays lazy, in its reader's scan.
  if (config_.churn_depart_per_tick > 0.0 || config_.churn_move_per_tick > 0.0)
    horizon_.assign(population_->size(), 0);
}

Deployment::~Deployment() = default;

void Deployment::build_session(std::size_t reader,
                               detail::ReaderRuntime& rt) {
  sim::SessionConfig session_config = config_.session;
  // Incarnation in the seed: a rebooted reader is a new physical boot, so
  // its protocol stream must not replay the dead one's draws.
  session_config.seed = derive_seed(
      derive_seed(config_.session.seed, reader), rt.incarnations);
  rt.session =
      std::make_unique<sim::Session>(*population_, std::move(session_config));
  rt.policy = make_deployment_policy(config_.kind);
  rt.engine =
      std::make_unique<protocols::RoundEngine>(*rt.session, rt.recovery);
  ++rt.incarnations;
}

void Deployment::fold_session(std::size_t reader, detail::ReaderRuntime& rt) {
  (void)reader;
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
  rt.engine.reset();
  rt.policy.reset();
}

void Deployment::run_reader_parallel(std::size_t reader,
                                     detail::ReaderRuntime& rt) {
  rt.fault_event.reset();
  rt.round_ran = false;
  rt.round_completed = false;
  rt.heartbeat = false;
  rt.round_time_us = 0.0;
  rt.round_delivered = 0;
  rt.moved.clear();
  rt.moved_target.clear();
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
  if (!horizon_.empty() && !rt.active.empty()) churn_scan(reader, rt);

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
  rt.round_completed = rt.engine->run_round(rt.active, *rt.policy);
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
// now owned elsewhere queue for handoff to their new owner. Pass 1 only
// compares each tag's horizon with the tick, with independent loads and no
// hashing; pass 2 walks the due tags' churn events from their ID words. A
// tag that stays stores its next event tick as its new horizon.
void Deployment::churn_scan(std::size_t reader, detail::ReaderRuntime& rt) {
  const std::size_t n = rt.active.size();
  rt.churn_done.resize(n);
  // Locals, not members: the char stores below may alias any member.
  const std::uint64_t now = tick_;
  const tags::Tag* const base = population_->tags().data();
  const std::uint32_t* const horizon = horizon_.data();
  char* const flags = rt.churn_done.data();
  std::size_t due = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const bool flag =
        now >= horizon[static_cast<std::size_t>(rt.active.tag(i) - base)];
    flags[i] = static_cast<char>(flag);
    due += flag ? 1u : 0u;
  }
  if (due == 0) return;
  std::size_t removed = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (flags[i] == 0) continue;
    const tags::Tag* tag = rt.active.tag(i);
    const IdWords id{rt.active.id_hi(i), rt.active.id_lo(i)};
    const ChurnPosition position =
        rules_.churn_position(id, rules_.home(id), tick_);
    if (position.departed) {
      rt.departed.push_back(tag->id());
      ++removed;
      continue;
    }
    const std::size_t owner = rules_.owner_in_zone(id, position.zone);
    if (owner != reader) {
      rt.moved.push_back(tag);
      rt.moved_target.push_back(static_cast<std::uint32_t>(owner));
      ++removed;
      continue;
    }
    flags[i] = 0;
    horizon_[tag_index(tag)] = saturated_tick(position.next_event_at);
  }
  if (removed > 0) rt.active.compact(rt.churn_done);
}

bool Deployment::take_handoff(const tags::Tag* tag) {
  if (handoffs_used_.empty()) handoffs_used_.assign(population_->size(), 0);
  std::uint32_t& used = handoffs_used_[tag_index(tag)];
  if (used >= config_.handoff_budget) return false;
  ++used;
  return true;
}

void Deployment::rehome(std::size_t reader, const tags::Tag* tag) {
  runtime_[reader].active.push_back(tag);
  // The receiving reader evaluates the tag afresh at its next scan.
  if (!horizon_.empty()) horizon_[tag_index(tag)] = 0;
}

void Deployment::apply_fault_event(std::size_t reader,
                                   detail::ReaderRuntime& rt) {
  switch (rt.fault_event->kind) {
    case fault::ReaderFaultKind::kCrash:
      fold_session(reader, rt);
      supervisor_.note_crash(reader, tick_);
      hand_off(reader);
      break;
    case fault::ReaderFaultKind::kRestart:
      fold_session(reader, rt);
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
  // that can still make progress (the legacy fleet rule).
  std::size_t ring = config_.readers;  // sentinel: none
  for (std::size_t step = 1; step < config_.readers; ++step) {
    const std::size_t candidate = (from + step) % config_.readers;
    if (supervisor_.permanently_down(candidate)) continue;
    if (supervisor_.health(candidate) == obs::ReaderHealth::kDown) continue;
    ring = candidate;
    break;
  }
  const bool overlap = config_.zone_overlap > 0.0 && config_.readers > 1;
  rt.keep_scratch.clear();
  std::size_t rehomed = 0;
  for (std::size_t i = 0; i < rt.active.size(); ++i) {
    const tags::Tag* tag = rt.active.tag(i);
    const IdWords id{rt.active.id_hi(i), rt.active.id_lo(i)};
    std::size_t target = config_.readers;
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
    if (target == config_.readers) target = ring;
    if (target == config_.readers) {
      // Nobody can take the tag. Give it up loudly only if this reader
      // will never come back; otherwise it waits for the restart.
      if (supervisor_.permanently_down(from))
        report_.undelivered_ids.push_back(tag->id());
      else
        rt.keep_scratch.push_back(tag);
      continue;
    }
    if (take_handoff(tag)) {
      rehome(target, tag);
      ++rehomed;
    } else {
      report_.undelivered_ids.push_back(tag->id());
    }
  }
  std::swap(rt.active, rt.keep_scratch);
  rt.keep_scratch.clear();
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
      fold_session(r, rt);
      build_session(r, rt);
      rt.rebuilt_this_tick = true;
    }
  }
  for (std::size_t c = 0; c < channels_; ++c) {
    scheduled_[c] = scheduled_reader(c, config_.readers, channels_, tick_);
    runtime_[scheduled_[c]].scheduled = true;
  }

  // Parallel phase: every shard runs its readers' fault draws, churn scans
  // and scheduled rounds against reader-local state only.
  if (pool_ != nullptr && shards_ > 1) {
    for (std::size_t s = 0; s < shards_; ++s) {
      const std::size_t first = shard_begin_[s];
      const std::size_t last = shard_begin_[s + 1];
      pool_->submit([this, first, last] {
        for (std::size_t r = first; r < last; ++r)
          run_reader_parallel(r, runtime_[r]);
      });
    }
    pool_->wait_idle();
  } else {
    for (std::size_t r = 0; r < config_.readers; ++r)
      run_reader_parallel(r, runtime_[r]);
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
    for (std::size_t m = 0; m < rt.moved.size(); ++m) {
      const tags::Tag* tag = rt.moved[m];
      if (take_handoff(tag)) {
        rehome(rt.moved_target[m], tag);
        ++report_.handoffs;
        ++report_.churn_moves;
      } else {
        // rfidlint: allow(hotpath-alloc) — budget-exhausted slow path, outside the fault-free zero-alloc contract
        report_.undelivered_ids.push_back(tag->id());
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
  for (std::size_t r = 0; r < config_.readers; ++r)
    fold_session(r, runtime_[r]);

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
  // record-keeping sweeps additionally verify the ID sets cover the
  // population exactly once. Membership-only hash set — never iterated
  // (rfidlint's unordered-iteration rule).
  const std::size_t population_n = population_->size();
  bool exact = report_.delivered + report_.missing_ids.size() +
                   report_.undelivered_ids.size() ==
               population_n;
  if (config_.session.keep_records) {
    exact = exact && report_.records.size() == report_.delivered;
    std::unordered_set<TagId, TagIdHash> seen;
    seen.reserve(population_n);
    bool duplicates = false;
    for (const sim::CollectedRecord& record : report_.records)
      duplicates |= !seen.insert(record.id).second;
    for (const TagId& id : report_.missing_ids)
      duplicates |= !seen.insert(id).second;
    for (const TagId& id : report_.undelivered_ids)
      duplicates |= !seen.insert(id).second;
    bool covered = seen.size() == population_n;
    for (const tags::Tag& tag : *population_)
      covered &= seen.contains(tag.id());
    exact = exact && covered && !duplicates;
  }
  report_.verified = exact;
  return std::move(report_);
}

// --- Live views -------------------------------------------------------------

std::size_t Deployment::reader_count() const noexcept {
  return config_.readers;
}
std::size_t Deployment::channel_count() const noexcept { return channels_; }
std::size_t Deployment::shard_count() const noexcept { return shards_; }
std::uint64_t Deployment::ticks_run() const noexcept { return tick_; }

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
