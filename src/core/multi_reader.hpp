// Multi-reader deployments (paper Section II-A: the protocols "can be
// easily modified for multiple readers when the collision-free transmission
// schedule among the readers is established").
//
// This module supplies that schedule. The backend server partitions the
// known inventory across R readers (hash partition: balanced and
// distribution-independent); each reader runs the chosen polling protocol
// over its share. Two schedules are modelled:
//   * kTimeDivision    — readers share one RF channel and take turns; the
//                        sweep makespan is the sum of per-reader times.
//   * kSpatialParallel — readers cover RF-isolated zones (separate rooms,
//                        dock doors) and run concurrently; the makespan is
//                        the maximum per-reader time.
// A second, fault-tolerant schedule lives below run_multi_reader:
// run_fleet drives the same partitioned readers *tick by tick* (one polling
// round per reader per tick) under a fault::ReaderSupervisor, so readers
// can crash, stall and restart mid-sweep. A downed reader's still-unread
// tags are handed off to the next alive reader in ring order, each handoff
// gated by a fleet-level per-tag budget; tags whose budget runs out are
// reported undelivered — the fleet delivers or lists every tag, never
// loses one silently. All fault draws come from per-reader dedicated
// streams (fault::FaultInjector::sample_reader_fault), so a fleet with
// faults disabled is byte-identical to one built without the fault layer.
#pragma once

#include <cstdint>
#include <vector>

#include "common/hash.hpp"
#include "fault/fault_model.hpp"
#include "fault/supervisor.hpp"
#include "obs/health.hpp"
#include "protocols/registry.hpp"
#include "sim/session.hpp"
#include "tags/population.hpp"

namespace rfid::core {

enum class ReaderSchedule : std::uint8_t { kTimeDivision, kSpatialParallel };

struct MultiReaderConfig final {
  std::size_t readers = 2;
  protocols::ProtocolKind kind = protocols::ProtocolKind::kTpp;
  ReaderSchedule schedule = ReaderSchedule::kTimeDivision;
  sim::SessionConfig session{};  ///< per-reader seeds derive from .seed
  /// Seed of the hash partition assigning tags to readers.
  std::uint64_t partition_seed = 0x52464944;
};

struct MultiReaderReport final {
  std::vector<sim::RunResult> per_reader;
  double makespan_s = 0.0;      ///< wall-clock time of the whole sweep
  double total_busy_s = 0.0;    ///< summed reader activity (energy proxy)
  std::size_t collected = 0;    ///< total tags interrogated
  bool verified = false;        ///< union of records covers the inventory
};

/// Runs a full multi-reader sweep over `population`.
[[nodiscard]] MultiReaderReport run_multi_reader(
    const tags::TagPopulation& population, const MultiReaderConfig& config);

/// The partition function: which reader covers `id` (exposed for tests).
[[nodiscard]] std::size_t reader_of(const TagId& id, std::size_t readers,
                                    std::uint64_t partition_seed);

/// A TagId split into the (hi, lo) words tags::TagSoA stores and
/// tag_hash_words consumes.
struct IdWords final {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};
[[nodiscard]] constexpr IdWords id_words(const TagId& id) noexcept {
  return {(static_cast<std::uint64_t>(id.words[0]) << 32) | id.words[1],
          static_cast<std::uint64_t>(id.words[2])};
}

/// reader_of over the ID words (readers >= 1); reader_of wraps it, the way
/// tag_hash wraps tag_hash_words.
[[nodiscard]] constexpr std::size_t reader_of_words(
    IdWords id, std::size_t readers, std::uint64_t partition_seed) noexcept {
  const std::uint64_t hash = tag_hash_words(partition_seed, id.hi, id.lo);
  return static_cast<std::size_t>(hash % readers);
}

// --- Fault-tolerant fleet schedule ------------------------------------------

/// Configuration of one supervised fleet sweep. Reader faults and the
/// supervisor policy ride alongside the usual per-session knobs; with
/// `reader_faults` disabled the sweep never draws from the fault streams
/// and collects exactly what run_multi_reader would.
struct FleetConfig final {
  std::size_t readers = 4;
  protocols::ProtocolKind kind = protocols::ProtocolKind::kTpp;
  sim::SessionConfig session{};  ///< per-reader seeds derive from .seed
  std::uint64_t partition_seed = 0x52464944;
  /// Per-reader, per-tick fault process (crash / stall / restart), each
  /// reader sampling its own stream seeded by (seed, reader).
  fault::ReaderFaultConfig reader_faults{};
  fault::SupervisorConfig supervisor{};
  /// Times one tag may be rehomed away from a downed reader before the
  /// fleet gives it up as undelivered (a fleet-level per-tag budget).
  std::uint32_t handoff_budget = 4;
  /// Scheduling-tick cap: the sweep abandons (loudly — every remaining tag
  /// is listed undelivered) rather than run forever against a fault plan
  /// that keeps killing readers.
  std::uint64_t max_ticks = 1u << 16;
};

/// Per-reader outcome of a fleet sweep, folded across the reader's
/// incarnations (every crash/restart rebuilds the session; metrics of all
/// incarnations merge here).
struct FleetReaderReport final {
  sim::Metrics metrics{};
  std::size_t collected = 0;       ///< records delivered by this reader
  std::uint64_t incarnations = 1;  ///< sessions built (1 = never restarted)
  obs::ReaderHealth final_health = obs::ReaderHealth::kHealthy;
  std::uint64_t crashes = 0;
  std::uint64_t stalls = 0;
  std::uint64_t restarts = 0;
};

/// Outcome of a supervised fleet sweep. Every tag of the population is
/// accounted for exactly once across records / missing_ids /
/// undelivered_ids (`verified` asserts it).
struct FleetReport final {
  std::vector<FleetReaderReport> per_reader;
  /// Merge-fold of per_reader metrics in reader order, including the
  /// reader-fault counters (reader_crashes / reader_stalls /
  /// reader_restarts / handoffs).
  sim::Metrics totals{};
  std::vector<sim::CollectedRecord> records;
  std::vector<TagId> missing_ids;
  /// Tags given up on: session retry budgets, fleet handoff budgets, tick
  /// cap, or every eligible reader permanently down. In abandonment order.
  std::vector<TagId> undelivered_ids;
  /// Every health transition the supervisor recorded, in tick order.
  std::vector<fault::HealthTransition> transitions;
  std::uint64_t ticks = 0;      ///< scheduling ticks the sweep took
  std::uint64_t handoffs = 0;   ///< tags rehomed away from downed readers
  bool verified = false;        ///< exact delivered-or-listed accounting
};

/// Runs a supervised, fault-tolerant fleet sweep over `population`.
/// Deterministic in config.session.seed: byte-identical serial vs pooled
/// (the sweep itself is single-threaded; determinism tests replay it).
[[nodiscard]] FleetReport run_fleet(const tags::TagPopulation& population,
                                    const FleetConfig& config);

}  // namespace rfid::core
