#include "core/multi_reader.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "core/deployment.hpp"

namespace rfid::core {

std::size_t reader_of(const TagId& id, std::size_t readers,
                      std::uint64_t partition_seed) {
  RFID_EXPECTS(readers >= 1);
  return reader_of_words(id_words(id), readers, partition_seed);
}

MultiReaderReport run_multi_reader(const tags::TagPopulation& population,
                                   const MultiReaderConfig& config) {
  RFID_EXPECTS(config.readers >= 1);
  const auto protocol = protocols::make_protocol(config.kind);

  // Partition the inventory by hashed zone assignment.
  std::vector<std::vector<tags::Tag>> shares(config.readers);
  for (const tags::Tag& tag : population)
    shares[reader_of(tag.id(), config.readers, config.partition_seed)]
        .push_back(tag);

  MultiReaderReport report;
  report.per_reader.reserve(config.readers);
  for (std::size_t r = 0; r < config.readers; ++r) {
    const tags::TagPopulation zone(std::move(shares[r]));
    sim::SessionConfig session = config.session;
    session.seed = derive_seed(config.session.seed, r);
    report.per_reader.push_back(protocol->run(zone, session));
  }

  for (const sim::RunResult& result : report.per_reader) {
    const double t = result.exec_time_s();
    report.total_busy_s += t;
    report.makespan_s = config.schedule == ReaderSchedule::kTimeDivision
                            ? report.total_busy_s
                            : std::max(report.makespan_s, t);
    report.collected += result.records.size();
  }

  // Verification: the union of per-reader records covers the inventory
  // exactly once (readers must neither overlap nor skip). The hash set is
  // membership-only scratch — never iterated, so it cannot leak hash order
  // into the report (rfidlint's unordered-iteration rule).
  std::unordered_set<TagId, TagIdHash> seen;
  seen.reserve(population.size());
  bool duplicates = false;
  for (const sim::RunResult& result : report.per_reader)
    for (const sim::CollectedRecord& record : result.records)
      duplicates |= !seen.insert(record.id).second;
  bool covered = seen.size() == population.size();
  for (const tags::Tag& tag : population)
    covered &= seen.contains(tag.id());
  report.verified = covered && !duplicates;
  return report;
}

// --- Fault-tolerant fleet schedule ------------------------------------------
//
// run_fleet is a thin legacy shim over core::Deployment (see
// core/deployment.hpp): channels = readers (every reader transmits every
// tick, the schedule the original fleet engine hard-coded), disjoint zones
// (no overlap) and no churn. The supervision, handoff-budget and
// delivered-or-listed semantics live in the deployment layer now; this
// wrapper only reshapes the report into the stable FleetReport API.

FleetReport run_fleet(const tags::TagPopulation& population,
                      const FleetConfig& config) {
  RFID_EXPECTS(config.readers >= 1);
  DeploymentConfig deployment;
  deployment.readers = config.readers;
  deployment.channels = config.readers;  // legacy: all readers, every tick
  deployment.kind = config.kind;
  deployment.session = config.session;
  deployment.partition_seed = config.partition_seed;
  deployment.zone_overlap = 0.0;
  deployment.reader_faults = config.reader_faults;
  deployment.supervisor = config.supervisor;
  deployment.handoff_budget = config.handoff_budget;
  deployment.max_ticks = config.max_ticks;

  DeploymentReport result = run_deployment(population, deployment);

  FleetReport report;
  report.per_reader.resize(config.readers);
  for (std::size_t r = 0; r < config.readers; ++r) {
    FleetReaderReport& reader_report = report.per_reader[r];
    reader_report.metrics = result.per_reader_metrics[r];
    reader_report.collected = result.per_reader_delivered[r];
    reader_report.incarnations = result.per_reader_incarnations[r];
    reader_report.final_health = result.per_reader_health[r];
    reader_report.crashes = reader_report.metrics.reader_crashes;
    reader_report.stalls = reader_report.metrics.reader_stalls;
    reader_report.restarts = reader_report.metrics.reader_restarts;
  }
  report.totals = result.totals;
  report.records = std::move(result.records);
  report.missing_ids = std::move(result.missing_ids);
  report.undelivered_ids = std::move(result.undelivered_ids);
  report.transitions = std::move(result.transitions);
  report.ticks = result.ticks;
  report.handoffs = result.handoffs;
  report.verified = result.verified;
  return report;
}

}  // namespace rfid::core
