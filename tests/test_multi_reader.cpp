// Multi-reader tests: the zone partition (core/multi_reader.hpp) and the
// two ends of core::Deployment's channel schedule — C = 1 (time division)
// and C = R (every reader on its own channel, the supervised fleet sweep).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_set>

#include "core/deployment.hpp"
#include "core/multi_reader.hpp"
#include "obs/stream.hpp"

namespace rfid::core {
namespace {

tags::TagPopulation uniform(std::size_t n, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  return tags::TagPopulation::uniform_random(n, rng);
}

/// R readers on C channels, every other knob at its default.
DeploymentConfig schedule(std::size_t readers, std::size_t channels) {
  DeploymentConfig config;
  config.readers = readers;
  config.channels = channels;
  return config;
}

/// The supervised fleet: one channel per reader, so every reader transmits
/// every tick, with disjoint zones and no churn.
DeploymentConfig fleet(std::size_t readers) {
  return schedule(readers, readers);
}

/// Summed airtime of one reader's incarnations, in seconds.
double busy_s(const DeploymentReport& report, std::size_t reader) {
  return report.per_reader_metrics[reader].exec_time_s();
}

TEST(ReaderOf, PartitionIsBalanced) {
  const auto pop = uniform(8000, 1);
  std::vector<std::size_t> counts(4, 0);
  for (const tags::Tag& tag : pop) ++counts[reader_of(tag.id(), 4, 99)];
  for (const std::size_t c : counts) {
    EXPECT_GT(c, 1800u);
    EXPECT_LT(c, 2200u);
  }
}

TEST(ReaderOf, DeterministicAndSeedDependent) {
  const auto pop = uniform(100, 2);
  std::size_t moved = 0;
  for (const tags::Tag& tag : pop) {
    EXPECT_EQ(reader_of(tag.id(), 3, 7), reader_of(tag.id(), 3, 7));
    moved += reader_of(tag.id(), 3, 7) != reader_of(tag.id(), 3, 8);
  }
  EXPECT_GT(moved, 30u);  // a new partition seed reshuffles zones
}

TEST(MultiReader, CoversInventoryExactlyOnce) {
  const auto pop = uniform(3000, 3);
  for (const std::size_t channels : {1u, 3u}) {
    const auto report = run_deployment(pop, schedule(3, channels));
    EXPECT_TRUE(report.verified) << "channels=" << channels;
    EXPECT_EQ(report.delivered, 3000u);
    EXPECT_EQ(report.records.size(), 3000u);
    EXPECT_EQ(report.per_reader_metrics.size(), 3u);
  }
}

TEST(MultiReader, SingleReaderDegeneratesToPlainRun) {
  const auto pop = uniform(500, 4);
  const auto report = run_deployment(pop, schedule(1, 1));
  EXPECT_TRUE(report.verified);
  EXPECT_NEAR(report.makespan_s, report.total_busy_s,
              1e-12 * report.total_busy_s);
  EXPECT_EQ(report.per_reader_metrics.front().polls, 500u);
}

TEST(MultiReader, TimeDivisionMakespanIsSum) {
  const auto pop = uniform(2000, 5);
  const auto report = run_deployment(pop, schedule(4, 1));
  double sum = 0.0;
  for (std::size_t r = 0; r < 4; ++r) sum += busy_s(report, r);
  EXPECT_NEAR(report.makespan_s, sum, 1e-9);
}

TEST(MultiReader, SpatialParallelMakespanIsMax) {
  // Every tick costs its slowest channel, so at C = R the makespan lies
  // between the busiest reader's airtime (perfect overlap) and the total
  // airtime (no overlap at all) — and well below the latter.
  const auto pop = uniform(2000, 6);
  const auto report = run_deployment(pop, schedule(4, 4));
  double max_t = 0.0;
  for (std::size_t r = 0; r < 4; ++r)
    max_t = std::max(max_t, busy_s(report, r));
  EXPECT_GE(report.makespan_s, max_t - 1e-9);
  EXPECT_LE(report.makespan_s, report.total_busy_s + 1e-9);
  EXPECT_LT(report.makespan_s, report.total_busy_s);
}

TEST(MultiReader, SpatialParallelismScalesSweeps) {
  // Four channels should sweep ~4x faster than one; TPP's flat vector
  // length means near-ideal scaling (only round-granularity loss).
  const auto pop = uniform(8000, 7);
  const double t1 = run_deployment(pop, schedule(4, 1)).makespan_s;
  const double t4 = run_deployment(pop, schedule(4, 4)).makespan_s;
  EXPECT_LT(t4, t1 / 3.0);
  EXPECT_GT(t4, t1 / 5.0);
}

TEST(MultiReader, AcceptsOnlyRoundEngineProtocols) {
  // A Deployment steps readers one polling round per tick, which only the
  // round-engine protocols (HPP, TPP) support; every other kind is refused
  // up front rather than half-run.
  const auto pop = uniform(900, 8);
  for (const auto kind : protocols::all_protocols()) {
    DeploymentConfig config = schedule(3, 3);
    config.kind = kind;
    if (kind == protocols::ProtocolKind::kHpp ||
        kind == protocols::ProtocolKind::kTpp) {
      EXPECT_TRUE(run_deployment(pop, config).verified)
          << protocols::to_string(kind);
    } else {
      EXPECT_THROW((void)run_deployment(pop, config), std::invalid_argument)
          << protocols::to_string(kind);
    }
  }
}

TEST(MultiReader, NoisyChannelStillCoversExactly) {
  const auto pop = uniform(1500, 21);
  DeploymentConfig config = schedule(3, 1);
  config.session.fault.link = fault::LinkModel::kBernoulli;
  config.session.fault.bernoulli_loss = 0.2;
  const auto report = run_deployment(pop, config);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.delivered, 1500u);
}

TEST(MultiReader, MoreReadersThanTags) {
  const auto pop = uniform(3, 9);
  const auto report = run_deployment(pop, schedule(8, 1));
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.delivered, 3u);
}

TEST(MultiReader, EmptyInventory) {
  const tags::TagPopulation empty;
  const auto report = run_deployment(empty, schedule(2, 1));
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.delivered, 0u);
  EXPECT_DOUBLE_EQ(report.makespan_s, 0.0);
}

TEST(MultiReader, InvalidReaderCountRejected) {
  const auto pop = uniform(10, 10);
  EXPECT_THROW((void)run_deployment(pop, schedule(0, 1)), ContractViolation);
}

// --- Supervised fleet (C = R) -----------------------------------------------

/// Byte-stable digest of a fleet sweep: the totals JSON and the exact bit
/// pattern of its airtime, every sweep counter, each reader's fold and
/// outcome, and the ordered record / missing / undelivered ID lists.
std::string fleet_digest(const DeploymentReport& report) {
  std::ostringstream os;
  obs::write_json(os, report.totals);
  os << '|' << std::bit_cast<std::uint64_t>(report.totals.time_us) << '|'
     << report.records.size() << '|' << report.ticks << '|'
     << report.handoffs << '|' << report.transitions.size() << '|'
     << report.verified;
  for (std::size_t r = 0; r < report.per_reader_metrics.size(); ++r) {
    os << "|reader";
    obs::write_json(os, report.per_reader_metrics[r]);
    os << ':' << report.per_reader_delivered[r] << ':'
       << report.per_reader_incarnations[r] << ':'
       << obs::to_string(report.per_reader_health[r]);
  }
  os << "|records";
  for (const sim::CollectedRecord& record : report.records)
    os << '|' << record.id.to_hex() << ':' << record.payload.size();
  os << "|missing";
  for (const TagId& id : report.missing_ids) os << '|' << id.to_hex();
  os << "|undelivered";
  for (const TagId& id : report.undelivered_ids) os << '|' << id.to_hex();
  return os.str();
}

/// 64-bit FNV-1a of a digest, short enough to pin as a golden constant.
std::uint64_t digest_fold(const std::string& digest) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : digest) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Pins a sweep to the fold the fleet produced when it was first pinned.
void expect_fold(const DeploymentReport& report, std::uint64_t golden) {
  const std::uint64_t fold = digest_fold(fleet_digest(report));
  EXPECT_EQ(fold, golden) << "fold 0x" << std::hex << fold;
}

std::uint64_t sum_crashes(const DeploymentReport& report) {
  std::uint64_t crashes = 0;
  for (const sim::Metrics& metrics : report.per_reader_metrics)
    crashes += metrics.reader_crashes;
  return crashes;
}

std::uint64_t sum_stalls(const DeploymentReport& report) {
  std::uint64_t stalls = 0;
  for (const sim::Metrics& metrics : report.per_reader_metrics)
    stalls += metrics.reader_stalls;
  return stalls;
}

TEST(Fleet, ZeroFaultSweepCollectsEverythingWithoutFaultMachinery) {
  const auto pop = uniform(600, 31);
  const DeploymentConfig config = fleet(4);
  const DeploymentReport report = run_deployment(pop, config);

  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.records.size(), 600u);
  EXPECT_TRUE(report.undelivered_ids.empty());
  EXPECT_EQ(report.handoffs, 0u);
  EXPECT_TRUE(report.transitions.empty());
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(report.per_reader_incarnations[r], 1u);
    EXPECT_EQ(report.per_reader_metrics[r].reader_crashes, 0u);
    EXPECT_EQ(report.per_reader_metrics[r].reader_stalls, 0u);
    EXPECT_EQ(report.per_reader_metrics[r].reader_restarts, 0u);
    EXPECT_EQ(report.per_reader_health[r], obs::ReaderHealth::kHealthy);
  }
  EXPECT_EQ(report.totals.reader_crashes, 0u);
  EXPECT_EQ(report.totals.handoffs, 0u);

  // Determinism: the identical config replays the identical sweep.
  EXPECT_EQ(fleet_digest(run_deployment(pop, config)), fleet_digest(report));
  expect_fold(report, 0xd8a0de72b4affa69ULL);
}

TEST(Fleet, CrashesHandOffTagsAndAccountingStaysExact) {
  const auto pop = uniform(800, 32);
  DeploymentConfig config = fleet(4);
  config.session.seed = 12;
  // High rates: the sweep only lasts a dozen-odd ticks, and the test needs
  // actual incidents (deterministic in the seed, so not flaky) to exercise
  // handoff and supervision, not just survive them.
  config.reader_faults.crash_per_tick = 0.15;
  config.reader_faults.stall_per_tick = 0.20;
  const DeploymentReport report = run_deployment(pop, config);

  EXPECT_TRUE(report.verified);
  // Exact delivered-or-listed accounting, the fleet's core promise.
  EXPECT_EQ(report.records.size() + report.missing_ids.size() +
                report.undelivered_ids.size(),
            800u);
  // This fault plan reliably produces incidents at these rates; if it ever
  // stopped doing so the test would be vacuous, so assert it loudly.
  const std::uint64_t crashes = sum_crashes(report);
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(sum_stalls(report), 0u);
  EXPECT_GT(report.handoffs, 0u);
  EXPECT_FALSE(report.transitions.empty());
  EXPECT_EQ(report.totals.reader_crashes, crashes);
  EXPECT_EQ(report.totals.handoffs, report.handoffs);

  // Deterministic replay, faults and all.
  EXPECT_EQ(fleet_digest(run_deployment(pop, config)), fleet_digest(report));
  expect_fold(report, 0xb617c00511ebec92ULL);
}

TEST(Fleet, RelentlessCrashesStillDeliverOrListEveryTag) {
  // A hostile fault plan: crashes every few ticks, tiny restart budget, so
  // readers go permanently down and handoff budgets run dry. Whatever
  // happens, no tag may vanish.
  const auto pop = uniform(400, 33);
  DeploymentConfig config = fleet(3);
  config.session.seed = 5;
  config.reader_faults.crash_per_tick = 0.30;
  config.supervisor.max_restarts = 2;
  config.handoff_budget = 2;
  config.max_ticks = 4096;
  const DeploymentReport report = run_deployment(pop, config);

  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.records.size() + report.missing_ids.size() +
                report.undelivered_ids.size(),
            400u);
  expect_fold(report, 0xaae9f8fda47073e2ULL);
}

TEST(Fleet, StallsDelayButDoNotLoseTags) {
  const auto pop = uniform(500, 34);
  const DeploymentConfig zero_faults = fleet(2);
  DeploymentConfig stalling = zero_faults;
  stalling.reader_faults.stall_per_tick = 0.2;
  stalling.reader_faults.stall_ticks_min = 2;
  stalling.reader_faults.stall_ticks_max = 4;

  const DeploymentReport clean = run_deployment(pop, zero_faults);
  const DeploymentReport stalled = run_deployment(pop, stalling);
  EXPECT_TRUE(stalled.verified);
  EXPECT_EQ(stalled.records.size(), clean.records.size());
  EXPECT_GT(stalled.ticks, clean.ticks);  // stalls cost ticks, not tags
  EXPECT_GT(sum_stalls(stalled), 0u);
  expect_fold(clean, 0xf3f4251fd5e748f5ULL);
  expect_fold(stalled, 0x053e83f7783e94c0ULL);
}

TEST(Fleet, InvalidConfigsRejected) {
  const auto pop = uniform(10, 35);
  EXPECT_THROW((void)run_deployment(pop, fleet(0)), ContractViolation);
}

TEST(Fleet, ReportIsByteIdenticalAcrossShardCounts) {
  // The fleet workload (faults on, so handoffs and restarts fire) run at
  // 1, 2 and 7 execution shards must fold to the same bytes — the shard
  // knob is execution grain, never semantics.
  const auto pop = uniform(1000, 36);
  DeploymentConfig config = fleet(7);
  config.session.seed = 23;
  config.reader_faults.crash_per_tick = 0.05;
  config.reader_faults.stall_per_tick = 0.05;
  const DeploymentReport unsharded = run_deployment(pop, config);
  expect_fold(unsharded, 0xb28061b1dd5e7bcfULL);
  for (const std::size_t shards : {1u, 2u, 7u}) {
    config.shards = shards;
    EXPECT_EQ(fleet_digest(run_deployment(pop, config)),
              fleet_digest(unsharded))
        << "shards=" << shards;
  }
}

TEST(Fleet, OverlapZoneTagsDeliveredOrListedExactlyOnce) {
  // Heavy overlap + crashes: boundary tags are reachable by two readers
  // and get rehomed on faults, the classic double-count trap. Every tag
  // must land in exactly one of records / missing / undelivered.
  const auto pop = uniform(1200, 37);
  DeploymentConfig config = fleet(5);
  config.session.seed = 29;
  config.session.keep_records = true;
  config.zone_overlap = 0.6;
  config.reader_faults.crash_per_tick = 0.10;
  const DeploymentReport report = run_deployment(pop, config);
  EXPECT_TRUE(report.verified);

  std::unordered_set<TagId, TagIdHash> seen;
  for (const sim::CollectedRecord& record : report.records)
    EXPECT_TRUE(seen.insert(record.id).second) << record.id.to_hex();
  for (const TagId& id : report.missing_ids)
    EXPECT_TRUE(seen.insert(id).second) << id.to_hex();
  for (const TagId& id : report.undelivered_ids)
    EXPECT_TRUE(seen.insert(id).second) << id.to_hex();
  EXPECT_EQ(seen.size(), 1200u);
  for (const tags::Tag& tag : pop) EXPECT_EQ(seen.count(tag.id()), 1u);
}

}  // namespace
}  // namespace rfid::core
