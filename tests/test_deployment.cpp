// Deployment simulator tests (core/deployment.hpp): the reader-to-reader
// channel schedule (no co-channel concurrency), overlap ownership
// resolution, pure churn schedules, exact delivered-or-listed accounting,
// and shard/thread invariance of the report.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/deployment.hpp"
#include "obs/stream.hpp"
#include "parallel/thread_pool.hpp"

namespace rfid::core {
namespace {

tags::TagPopulation uniform(std::size_t n, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  return tags::TagPopulation::uniform_random(n, rng);
}

/// Byte-stable digest of a deployment report for determinism comparisons:
/// every counter, the ordered missing / undelivered / record ID lists, the
/// per-reader delivered counts and the exact bit pattern of the airtime
/// total (the JSON and stream renderings of a double are rounded).
std::string deployment_digest(const DeploymentReport& report) {
  std::ostringstream os;
  obs::write_json(os, report.totals);
  os << '|' << std::bit_cast<std::uint64_t>(report.totals.time_us) << '|'
     << report.delivered << '|' << report.ticks << '|' << report.handoffs
     << '|' << report.churn_moves << '|' << report.churn_departures << '|'
     << report.transitions.size() << '|' << report.verified;
  os << "|missing";
  for (const TagId& id : report.missing_ids) os << '|' << id.to_hex();
  os << "|undelivered";
  for (const TagId& id : report.undelivered_ids) os << '|' << id.to_hex();
  os << "|records";
  for (const sim::CollectedRecord& record : report.records)
    os << '|' << record.id.to_hex() << ':' << record.payload.size();
  os << "|delivered";
  for (const std::size_t delivered : report.per_reader_delivered)
    os << '|' << delivered;
  for (const ChannelReport& c : report.per_channel)
    os << '|' << c.readers << ':' << c.rounds << ':'
       << std::bit_cast<std::uint64_t>(c.busy_us);
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

// --- Channel schedule -------------------------------------------------------

TEST(ChannelSchedule, PopulationsPartitionTheFleet) {
  for (const std::size_t readers : {1u, 2u, 7u, 13u, 64u}) {
    for (std::size_t channels = 1; channels <= readers; ++channels) {
      std::size_t sum = 0;
      for (std::size_t c = 0; c < channels; ++c)
        sum += channel_population(c, readers, channels);
      EXPECT_EQ(sum, readers) << readers << "x" << channels;
      for (std::size_t r = 0; r < readers; ++r)
        EXPECT_LT(channel_of(r, channels), channels);
    }
  }
}

TEST(ChannelSchedule, NoCoChannelConcurrencyAndFullRotation) {
  // The core invariant: per tick exactly one reader transmits per channel,
  // and over one rotation every channel member is scheduled exactly once.
  constexpr std::size_t kReaders = 13;
  constexpr std::size_t kChannels = 4;
  for (std::size_t c = 0; c < kChannels; ++c) {
    const std::size_t members = channel_population(c, kReaders, kChannels);
    std::set<std::size_t> seen;
    for (std::uint64_t tick = 1; tick <= members; ++tick) {
      const std::size_t r = scheduled_reader(c, kReaders, kChannels, tick);
      ASSERT_LT(r, kReaders);
      EXPECT_EQ(channel_of(r, kChannels), c);  // never leaves its channel
      seen.insert(r);
    }
    EXPECT_EQ(seen.size(), members);  // every member exactly once
    // The rotation wraps: tick members+1 repeats tick 1.
    EXPECT_EQ(scheduled_reader(c, kReaders, kChannels, members + 1),
              scheduled_reader(c, kReaders, kChannels, 1));
  }
}

TEST(ChannelSchedule, DegeneratesToTimeDivisionAndSpatialParallel) {
  constexpr std::size_t kReaders = 6;
  // C = 1: one shared channel, readers take strict turns (pure TDMA).
  std::set<std::size_t> tdma;
  for (std::uint64_t tick = 1; tick <= kReaders; ++tick)
    tdma.insert(scheduled_reader(0, kReaders, 1, tick));
  EXPECT_EQ(tdma.size(), kReaders);
  // C = R: every reader owns a channel and transmits every tick.
  for (std::uint64_t tick = 1; tick <= 3; ++tick)
    for (std::size_t c = 0; c < kReaders; ++c)
      EXPECT_EQ(scheduled_reader(c, kReaders, kReaders, tick), c);
}

// --- Overlap ownership ------------------------------------------------------

TEST(Ownership, ResolvesWithinReachDeterministically) {
  const auto pop = uniform(2000, 41);
  DeploymentConfig config;
  config.readers = 8;
  config.zone_overlap = 0.5;
  std::size_t rehomed = 0;
  for (const tags::Tag& tag : pop) {
    const std::size_t zone = 3;
    const std::size_t owner = owner_in_zone(tag.id(), zone, config);
    EXPECT_EQ(owner, owner_in_zone(tag.id(), zone, config));  // pure
    if (owner != zone) {
      // Rehoming is only legal to the overlapping neighbor, and only for
      // tags the overlap draw actually reaches.
      EXPECT_EQ(owner, (zone + 1) % config.readers);
      EXPECT_TRUE(PlacementRules(config).reaches_neighbor(id_words(tag.id())));
      ++rehomed;
    }
  }
  // ~50% reach the neighbor, ~half of those hash to it: ~25% rehome.
  EXPECT_GT(rehomed, 300u);
  EXPECT_LT(rehomed, 700u);
}

TEST(Ownership, ZeroOverlapIsTheLegacyPartition) {
  const auto pop = uniform(300, 42);
  DeploymentConfig config;
  config.readers = 5;
  config.zone_overlap = 0.0;
  for (const tags::Tag& tag : pop) {
    EXPECT_FALSE(PlacementRules(config).reaches_neighbor(id_words(tag.id())));
    for (std::size_t zone = 0; zone < config.readers; ++zone)
      EXPECT_EQ(owner_in_zone(tag.id(), zone, config), zone);
  }
}

// --- Churn schedules --------------------------------------------------------

TEST(Churn, PositionIsPureAndDepartureIsAbsorbing) {
  const auto pop = uniform(200, 43);
  DeploymentConfig config;
  config.readers = 6;
  config.churn_move_per_tick = 0.05;
  config.churn_depart_per_tick = 0.02;
  std::size_t departures = 0, moves = 0;
  for (const tags::Tag& tag : pop) {
    ChurnPosition prev = churn_position(tag.id(), 2, 0, config);
    EXPECT_EQ(prev.zone, 2u);  // tick 0: still at home
    EXPECT_FALSE(prev.departed);
    for (std::uint64_t tick = 1; tick <= 200; ++tick) {
      const ChurnPosition pos = churn_position(tag.id(), 2, tick, config);
      const ChurnPosition again = churn_position(tag.id(), 2, tick, config);
      EXPECT_EQ(pos.zone, again.zone);  // pure in (seed, id, tick)
      EXPECT_EQ(pos.moves, again.moves);
      EXPECT_GE(pos.moves, prev.moves);  // event count never rewinds
      EXPECT_LT(pos.zone, config.readers);
      if (prev.departed) {  // departure is absorbing
        EXPECT_TRUE(pos.departed);
        EXPECT_EQ(pos.departed_at, prev.departed_at);
        EXPECT_EQ(pos.moves, prev.moves);
      }
      prev = pos;
    }
    departures += prev.departed;
    moves += prev.moves;
  }
  // At these hazards over 200 ticks, nearly everything departs and most
  // tags move at least once first — the schedules demonstrably fire.
  EXPECT_GT(departures, 150u);
  EXPECT_GT(moves, 200u);
}

TEST(Churn, ZeroHazardsMeanNobodyEverMoves) {
  const auto pop = uniform(50, 44);
  DeploymentConfig config;
  config.readers = 4;
  for (const tags::Tag& tag : pop) {
    const ChurnPosition pos = churn_position(tag.id(), 1, 1u << 16, config);
    EXPECT_EQ(pos.zone, 1u);
    EXPECT_FALSE(pos.departed);
    EXPECT_EQ(pos.moves, 0u);
  }
}

TEST(Churn, ZeroHazardsScheduleNoEvent) {
  const auto pop = uniform(50, 52);
  DeploymentConfig config;
  config.readers = 4;
  for (const tags::Tag& tag : pop)
    for (const std::uint64_t tick : {0u, 1u, 1u << 16})
      EXPECT_EQ(churn_position(tag.id(), 1, tick, config).next_event_at,
                UINT64_MAX);
}

TEST(Churn, PositionHoldsUntilNextEventAt) {
  // The horizon contract the deployment's churn scan skips on: the
  // position is constant on [t, next_event_at) and differs at
  // next_event_at (one more move to another zone, or the departure).
  const auto pop = uniform(120, 53);
  DeploymentConfig config;
  config.readers = 6;
  config.churn_move_per_tick = 0.03;
  config.churn_depart_per_tick = 0.005;
  std::size_t spans = 0;
  for (const tags::Tag& tag : pop) {
    for (const std::uint64_t t : {0u, 1u, 17u, 60u, 200u}) {
      const ChurnPosition at_t = churn_position(tag.id(), 4, t, config);
      if (at_t.departed) {  // absorbing: no event is left
        EXPECT_EQ(at_t.next_event_at, UINT64_MAX);
        continue;
      }
      ASSERT_GT(at_t.next_event_at, t);
      for (std::uint64_t u = t + 1; u < at_t.next_event_at; ++u) {
        const ChurnPosition at_u = churn_position(tag.id(), 4, u, config);
        EXPECT_EQ(at_u.zone, at_t.zone);
        EXPECT_EQ(at_u.moves, at_t.moves);
        EXPECT_FALSE(at_u.departed);
        EXPECT_EQ(at_u.next_event_at, at_t.next_event_at);
      }
      const ChurnPosition next =
          churn_position(tag.id(), 4, at_t.next_event_at, config);
      if (next.departed) {
        EXPECT_EQ(next.departed_at, at_t.next_event_at);
      } else {
        EXPECT_EQ(next.moves, at_t.moves + 1);
        EXPECT_NE(next.zone, at_t.zone);
      }
      ++spans;
    }
  }
  EXPECT_GT(spans, 300u);  // most sampled ticks precede the departure
}

TEST(Churn, FirstEventFloorStaysBelowTheFirstEvent) {
  // The horizon placement gives a tag: strictly below the tick of event 0
  // at every hazard, and at churn-fleet's hazard past a 16-tick first
  // rotation for nearly every tag, so its first scans skip it. At 1e-12
  // and 1e-10 the slope passes 2^32, so it is capped and the largest
  // floors come within 2^20 of UINT32_MAX without wrapping. The ID counts
  // leave ragged lane tails for the 4- and 8-lane hash kernels.
  DeploymentConfig config;
  config.readers = 5;
  Xoshiro256ss rng(54);
  for (const double hazard : {1e-12, 1e-10, 1e-6, 0.002, 0.05, 0.3, 0.9999}) {
    config.churn_move_per_tick = hazard;
    const PlacementRules rules(config);
    for (const std::size_t n : {std::size_t{0}, std::size_t{7},
                                std::size_t{100'000}, std::size_t{100'013}}) {
      std::vector<std::uint64_t> hi(n);
      std::vector<std::uint64_t> lo(n);
      for (std::size_t i = 0; i < n; ++i) {
        hi[i] = rng();
        lo[i] = rng() & 0xFFFFFFFFu;
      }
      std::vector<std::uint32_t> floors(n, 0xDEADBEEF);
      rules.first_event_floors(hi.data(), lo.data(), floors.data(), n);
      std::size_t past_rotation = 0;
      std::uint32_t highest = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const IdWords id{hi[i], lo[i]};
        ASSERT_LT(floors[i], rules.churn_position(id, 2, 0).next_event_at)
            << "hazard " << hazard << " id " << id.hi << ':' << id.lo;
        past_rotation += floors[i] > 16 ? 1u : 0u;
        highest = std::max(highest, floors[i]);
      }
      if (n < 100'000) continue;
      if (hazard == 0.002) {
        EXPECT_GE(past_rotation, n * 95 / 100);
      }
      if (hazard <= 1e-10) {
        EXPECT_GT(highest, UINT32_MAX - (1u << 20)) << "hazard " << hazard;
      }
    }
  }
}

TEST(Churn, BatchedEvaluationMatchesTheWalk) {
  // PlacementRules::evaluate_churn against the public per-tag wrappers the
  // scan used to call one tag at a time: reader_of for the home zone,
  // churn_position from it, and owner_in_zone of the position's zone. At
  // the high hazards most tags pass two events per window, so the walk
  // continuation from event 2 runs too. Each tick is evaluated in one
  // 10^4-tag call and again in calls of every length 0-67, which leave
  // ragged tails in the hash kernel and cross its 256-tag blocks.
  Xoshiro256ss rng(55);
  constexpr std::size_t kTags = 10'000;
  std::vector<TagId> ids(kTags);
  std::vector<std::uint64_t> hi(kTags), lo(kTags);
  for (std::size_t i = 0; i < kTags; ++i) {
    for (std::uint32_t& word : ids[i].words)
      word = static_cast<std::uint32_t>(rng());
    hi[i] = id_words(ids[i]).hi;
    lo[i] = id_words(ids[i]).lo;
  }
  std::vector<ChurnOutcome> whole(kTags), pieces(kTags);
  std::size_t continued = 0;
  for (const double hazard : {1e-12, 1e-6, 0.002, 0.05, 0.3, 0.9999}) {
    for (const std::size_t readers : {1u, 2u, 5u, 256u}) {
      for (const double overlap : {0.0, 0.2, 1.0}) {
        DeploymentConfig config;
        config.readers = readers;
        config.zone_overlap = overlap;
        config.churn_move_per_tick = hazard * 0.7;
        config.churn_depart_per_tick = hazard * 0.3;
        const PlacementRules rules(config);
        const std::vector<std::uint64_t> seeds = rules.ownership_seeds();
        const double mean = 1.0 / hazard;  // ticks between events
        for (const double at : {0.0, 1.0, 0.5 * mean, 2 * mean, 6 * mean}) {
          const auto tick = static_cast<std::uint64_t>(at);
          SCOPED_TRACE("hazard " + std::to_string(hazard) + " readers " +
                       std::to_string(readers) + " overlap " +
                       std::to_string(overlap) + " tick " +
                       std::to_string(tick));
          rules.evaluate_churn(hi.data(), lo.data(), kTags, tick, seeds,
                               whole.data());
          std::size_t begin = 0;
          for (std::size_t len = 0; len <= 67; ++len) {
            rules.evaluate_churn(hi.data() + begin, lo.data() + begin, len,
                                 tick, seeds, pieces.data() + begin);
            begin += len;
          }
          for (std::size_t i = 0; i < kTags; ++i) {
            const std::size_t home =
                reader_of(ids[i], readers, config.partition_seed);
            const ChurnPosition position =
                churn_position(ids[i], home, tick, config);
            continued += position.moves >= 2 ? 1u : 0u;
            const ChurnOutcome& got = whole[i];
            ASSERT_EQ(got.departed, position.departed) << "i=" << i;
            if (!position.departed) {
              ASSERT_EQ(got.next_event_at, position.next_event_at) << "i=" << i;
              ASSERT_EQ(got.owner, owner_in_zone(ids[i], position.zone, config))
                  << "i=" << i;
            }
            if (i >= begin) continue;
            ASSERT_EQ(pieces[i].departed, got.departed) << "i=" << i;
            if (!got.departed) {
              ASSERT_EQ(pieces[i].next_event_at, got.next_event_at)
                  << "i=" << i;
              ASSERT_EQ(pieces[i].owner, got.owner) << "i=" << i;
            }
          }
        }
      }
    }
  }
  // Tags whose first two events both fell due: the continuation ran.
  EXPECT_GT(continued, kTags);
}

// --- End-to-end accounting --------------------------------------------------

TEST(Deployment, ChurningOverlappingSweepAccountsExactly) {
  const auto pop = uniform(2000, 45);
  DeploymentConfig config;
  config.readers = 8;
  config.channels = 3;
  config.session.seed = 9;
  config.session.keep_records = true;
  config.zone_overlap = 0.3;
  config.churn_move_per_tick = 0.01;
  config.churn_depart_per_tick = 0.003;
  const DeploymentReport report = run_deployment(pop, config);

  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.delivered + report.missing_ids.size() +
                report.undelivered_ids.size(),
            2000u);
  EXPECT_EQ(report.records.size(), report.delivered);
  EXPECT_GT(report.churn_moves, 0u);
  EXPECT_GT(report.churn_departures, 0u);
  EXPECT_GE(report.handoffs, report.churn_moves);

  // Exactly-once: delivered, missing and undelivered are disjoint and
  // together cover the whole population.
  std::unordered_set<TagId, TagIdHash> seen;
  for (const sim::CollectedRecord& record : report.records)
    EXPECT_TRUE(seen.insert(record.id).second) << record.id.to_hex();
  for (const TagId& id : report.missing_ids)
    EXPECT_TRUE(seen.insert(id).second) << id.to_hex();
  for (const TagId& id : report.undelivered_ids)
    EXPECT_TRUE(seen.insert(id).second) << id.to_hex();
  for (const tags::Tag& tag : pop) EXPECT_EQ(seen.count(tag.id()), 1u);
}

TEST(Deployment, ChannelReportsAreConsistent) {
  const auto pop = uniform(1200, 46);
  DeploymentConfig config;
  config.readers = 7;
  config.channels = 3;
  const DeploymentReport report = run_deployment(pop, config);
  EXPECT_TRUE(report.verified);
  ASSERT_EQ(report.per_channel.size(), 3u);
  double busy_us = 0.0;
  std::uint64_t rounds = 0;
  for (std::size_t c = 0; c < report.per_channel.size(); ++c) {
    EXPECT_EQ(report.per_channel[c].readers, channel_population(c, 7, 3));
    EXPECT_GT(report.per_channel[c].rounds, 0u);
    busy_us += report.per_channel[c].busy_us;
    rounds += report.per_channel[c].rounds;
  }
  EXPECT_NEAR(busy_us * 1e-6, report.total_busy_s, 1e-6);
  EXPECT_EQ(rounds, report.totals.rounds);
  // Time division across co-channel readers: the makespan exceeds the
  // per-channel maximum share but never the full serialized airtime.
  EXPECT_LT(report.makespan_s, report.total_busy_s);
}

TEST(Deployment, SupervisorDeadlinesScaleWithTheRotation) {
  // 12 readers on one channel: each transmits every 12th tick. Unscaled,
  // the default degraded_after_ticks=2 would flag every reader; the
  // rotation-scaled deadlines must keep a fault-free fleet spotless.
  const auto pop = uniform(1500, 47);
  DeploymentConfig config;
  config.readers = 12;
  config.channels = 1;
  const DeploymentReport report = run_deployment(pop, config);
  EXPECT_TRUE(report.verified);
  EXPECT_TRUE(report.transitions.empty());
  for (const obs::ReaderHealth health : report.per_reader_health)
    EXPECT_EQ(health, obs::ReaderHealth::kHealthy);
  for (const std::uint64_t incarnations : report.per_reader_incarnations)
    EXPECT_EQ(incarnations, 1u);
}

TEST(Deployment, FaultsUnderChannelContentionStayExact) {
  const auto pop = uniform(900, 48);
  DeploymentConfig config;
  config.readers = 6;
  config.channels = 2;
  config.session.seed = 13;
  config.zone_overlap = 0.2;
  config.reader_faults.crash_per_tick = 0.05;
  config.reader_faults.stall_per_tick = 0.05;
  const DeploymentReport report = run_deployment(pop, config);
  EXPECT_TRUE(report.verified);
  EXPECT_EQ(report.delivered + report.missing_ids.size() +
                report.undelivered_ids.size(),
            900u);
  EXPECT_GT(report.totals.reader_crashes + report.totals.reader_stalls, 0u);
  EXPECT_FALSE(report.transitions.empty());
}

TEST(Deployment, ChurnAloneExhaustsTheHandoffBudget) {
  // No reader faults, so every handoff is a churn move and only the fleet
  // handoff ledger can give a tag up.
  const auto pop = uniform(2000, 54);
  DeploymentConfig config;
  config.readers = 8;
  config.channels = 2;
  config.session.seed = 29;
  config.session.keep_records = true;
  config.zone_overlap = 0.2;
  config.churn_move_per_tick = 0.05;
  config.handoff_budget = 1;
  const DeploymentReport report = run_deployment(pop, config);
  EXPECT_TRUE(report.verified);
  EXPECT_FALSE(report.undelivered_ids.empty());
  EXPECT_EQ(report.handoffs, report.churn_moves);
  EXPECT_LE(report.handoffs, pop.size());  // at most one per tag

  // The same sweep with budget to spare gives nobody up.
  config.handoff_budget = 1000;
  const DeploymentReport roomy = run_deployment(pop, config);
  EXPECT_TRUE(roomy.verified);
  EXPECT_TRUE(roomy.undelivered_ids.empty());
  EXPECT_GT(roomy.handoffs, report.handoffs);
}

// --- Shard and thread invariance --------------------------------------------

TEST(Deployment, ReportIsInvariantToShardCount) {
  // Without a pool the shards run one after another and placement ignores
  // them, so the sharded runs go through a pool: 2 and 7 shards split the
  // 14 readers into concurrent tasks that each run their readers on one
  // round scratch, while crashes fold and rebuild sessions mid-drain.
  const auto pop = uniform(3000, 49);
  DeploymentConfig config;
  config.readers = 14;
  config.channels = 4;
  config.session.seed = 17;
  config.zone_overlap = 0.25;
  config.churn_move_per_tick = 0.005;
  config.churn_depart_per_tick = 0.001;
  config.reader_faults.crash_per_tick = 0.02;
  parallel::ThreadPool pool(3);
  for (const protocols::ProtocolKind kind :
       {protocols::ProtocolKind::kHpp, protocols::ProtocolKind::kTpp}) {
    config.kind = kind;
    config.shards = 1;
    const DeploymentReport serial = run_deployment(pop, config);
    EXPECT_GT(serial.totals.reader_crashes, 0u);
    const std::string baseline = deployment_digest(serial);
    for (const std::size_t shards : {2u, 7u}) {
      config.shards = shards;
      Deployment sharded(pop, config, &pool);
      EXPECT_EQ(sharded.shard_count(), shards);
      while (sharded.tick()) {
      }
      EXPECT_EQ(deployment_digest(sharded.finish()), baseline)
          << protocols::to_string(kind) << " shards=" << shards;
    }
  }
}

TEST(Deployment, PooledRunIsByteIdenticalToSerial) {
  const auto pop = uniform(2500, 50);
  DeploymentConfig config;
  config.readers = 9;
  config.channels = 3;
  config.session.seed = 19;
  config.zone_overlap = 0.2;
  config.churn_move_per_tick = 0.004;
  config.reader_faults.crash_per_tick = 0.02;
  const std::string serial = deployment_digest(run_deployment(pop, config));
  parallel::ThreadPool pool(3);
  EXPECT_EQ(deployment_digest(run_deployment(pop, config, &pool)), serial);
}

// --- Golden runs ------------------------------------------------------------
//
// Hard-coded digests of churning, overlapping sweeps under reader crashes,
// stalls and restarts. The other report tests compare the code against
// itself; these pin its exact output, so any rework of the churn scan, the
// handoff ledger or the placement rules must reproduce it bit for bit.

DeploymentConfig golden_config(protocols::ProtocolKind kind,
                               bool keep_records) {
  DeploymentConfig config;
  config.readers = 10;
  config.channels = 3;
  config.kind = kind;
  config.session.seed = 23;
  config.session.keep_records = keep_records;
  config.zone_overlap = 0.25;
  config.churn_move_per_tick = 0.01;
  config.churn_depart_per_tick = 0.002;
  config.reader_faults.crash_per_tick = 0.01;
  config.reader_faults.stall_per_tick = 0.02;
  config.reader_faults.restart_per_tick = 0.01;
  return config;
}

struct Golden final {
  std::size_t delivered;
  std::size_t missing;
  std::size_t undelivered;
  std::uint64_t ticks;
  std::uint64_t fold;
};

void expect_golden(const DeploymentReport& report, const Golden& golden) {
  EXPECT_TRUE(report.verified);
  // Every path the golden is meant to pin actually ran.
  EXPECT_GT(report.churn_moves, 0u);
  EXPECT_GT(report.churn_departures, 0u);
  EXPECT_GT(report.totals.reader_crashes, 0u);
  EXPECT_GT(report.totals.reader_stalls, 0u);
  EXPECT_GT(report.totals.reader_restarts, 0u);
  EXPECT_GT(report.handoffs, report.churn_moves);  // fault rehoming too
  EXPECT_EQ(report.delivered, golden.delivered);
  EXPECT_EQ(report.missing_ids.size(), golden.missing);
  EXPECT_EQ(report.undelivered_ids.size(), golden.undelivered);
  EXPECT_EQ(report.ticks, golden.ticks);
  const std::uint64_t fold = digest_fold(deployment_digest(report));
  EXPECT_EQ(fold, golden.fold) << "fold 0x" << std::hex << fold;
}

TEST(DeploymentGolden, TppWithRecords) {
  const auto pop = uniform(3000, 61);
  const auto config = golden_config(protocols::ProtocolKind::kTpp, true);
  expect_golden(run_deployment(pop, config),
                {2704, 49, 247, 52, 0x3d3a54545fac469fULL});
}

TEST(DeploymentGolden, TppRecordFree) {
  const auto pop = uniform(3000, 61);
  const auto config = golden_config(protocols::ProtocolKind::kTpp, false);
  expect_golden(run_deployment(pop, config),
                {2704, 49, 247, 52, 0x1f80a1e7036832baULL});
}

TEST(DeploymentGolden, HppWithRecords) {
  const auto pop = uniform(3000, 62);
  const auto config = golden_config(protocols::ProtocolKind::kHpp, true);
  expect_golden(run_deployment(pop, config),
                {2701, 51, 248, 60, 0xc90329a60156d20eULL});
}

TEST(DeploymentGolden, HppRecordFree) {
  const auto pop = uniform(3000, 62);
  const auto config = golden_config(protocols::ProtocolKind::kHpp, false);
  expect_golden(run_deployment(pop, config),
                {2701, 51, 248, 60, 0x97ac4aa1cbbfce67ULL});
}

TEST(DeploymentGolden, TppOnOneSharedChannel) {
  // Strict time division stretches the drain over hundreds of ticks, so
  // every tag waits through many churn events between its reader's turns.
  const auto pop = uniform(3000, 64);
  DeploymentConfig config = golden_config(protocols::ProtocolKind::kTpp, false);
  config.readers = 12;
  config.channels = 1;
  config.churn_move_per_tick = 0.002;
  config.churn_depart_per_tick = 0.0005;
  config.reader_faults.crash_per_tick = 0.002;
  config.reader_faults.stall_per_tick = 0.004;
  config.reader_faults.restart_per_tick = 0.002;
  expect_golden(run_deployment(pop, config),
                {2936, 49, 15, 192, 0xb60adc9d064f1473ULL});
}

TEST(DeploymentGolden, TppUnderBudgetExhaustion) {
  // Heavy moves against a one-handoff budget: the ledger gives tags up.
  const auto pop = uniform(3000, 63);
  DeploymentConfig config = golden_config(protocols::ProtocolKind::kTpp, true);
  config.churn_move_per_tick = 0.05;
  config.handoff_budget = 1;
  const DeploymentReport report = run_deployment(pop, config);
  EXPECT_FALSE(report.undelivered_ids.empty());
  expect_golden(report, {2241, 41, 718, 44, 0x48199094d9d0ec97ULL});
}

TEST(DeploymentGolden, PooledRunMatchesTheGolden) {
  const auto pop = uniform(3000, 61);
  const auto config = golden_config(protocols::ProtocolKind::kTpp, true);
  parallel::ThreadPool pool(3);
  expect_golden(run_deployment(pop, config, &pool),
                {2704, 49, 247, 52, 0x3d3a54545fac469fULL});
}

/// churn-fleet's regime at a test's size: an 8-tick rotation, and a hazard
/// low enough that nearly every first-event floor lies past it, so most
/// placed tags settle without a full evaluation and a moved tag's next
/// event usually lies beyond its new reader's next scan. The fault rates
/// are TppOnOneSharedChannel's, enough for every path expect_golden
/// checks to run.
DeploymentConfig churn_fleet_config() {
  DeploymentConfig config = golden_config(protocols::ProtocolKind::kTpp, false);
  config.readers = 64;
  config.channels = 8;
  config.zone_overlap = 0.2;
  config.churn_move_per_tick = 0.002 * 0.8;
  config.churn_depart_per_tick = 0.002 * 0.2;
  config.reader_faults.crash_per_tick = 0.002;
  config.reader_faults.stall_per_tick = 0.004;
  config.reader_faults.restart_per_tick = 0.002;
  return config;
}

TEST(DeploymentGolden, ChurnFleetShape) {
  const auto pop = uniform(20'000, 65);
  expect_golden(run_deployment(pop, churn_fleet_config()),
                {19614, 142, 244, 154, 0x8e42e93a28bb7402ULL});
}

TEST(DeploymentGolden, ChurnFleetShapePooled) {
  const auto pop = uniform(20'000, 65);
  parallel::ThreadPool pool(3);
  expect_golden(run_deployment(pop, churn_fleet_config(), &pool),
                {19614, 142, 244, 154, 0x8e42e93a28bb7402ULL});
}

TEST(DeploymentGolden, TppWhenNoReaderCanTakeTheTags) {
  // Two readers that crash and stall often: a downed reader's tags go to
  // the other one unless it is down too. Then they stay put, horizons and
  // all, until the restart, and churn keeps running across the wait.
  const auto pop = uniform(2000, 66);
  DeploymentConfig config = golden_config(protocols::ProtocolKind::kTpp, false);
  config.readers = 2;
  config.channels = 2;
  config.reader_faults.crash_per_tick = 0.15;
  config.reader_faults.stall_per_tick = 0.15;
  expect_golden(run_deployment(pop, config),
                {1868, 38, 94, 36, 0x97276730b0c5c1adULL});
}

TEST(Deployment, InvalidConfigsRejected) {
  const auto pop = uniform(10, 51);
  DeploymentConfig config;
  config.readers = 0;
  EXPECT_THROW((void)run_deployment(pop, config), ContractViolation);
  config.readers = 2;
  config.zone_overlap = 1.5;
  EXPECT_THROW((void)run_deployment(pop, config), ContractViolation);
  config.zone_overlap = 0.0;
  config.churn_depart_per_tick = 1.0;
  EXPECT_THROW((void)run_deployment(pop, config), ContractViolation);
  // A total hazard this small puts event ticks past 2^64.
  config.churn_depart_per_tick = 0.0;
  config.churn_move_per_tick = 1e-20;
  EXPECT_THROW((void)run_deployment(pop, config), ContractViolation);
  config.churn_move_per_tick = 1e-12;
  EXPECT_NO_THROW((void)run_deployment(pop, config));
}

}  // namespace
}  // namespace rfid::core
