// Fault-injection walkthrough: what a polling reader does when the clean-
// channel assumption breaks. Three acts over the same 1,000-tag workload:
//
//   1. clean channel          — the paper's setting, zero waste;
//   2. burst loss, no policy  — a Gilbert–Elliott link garbles replies in
//                               bursts; tags drift into later rounds;
//   3. burst loss + churn + recovery — some tags leave mid-run (two return
//                               later), the reader re-polls with a bounded
//                               per-tag budget and reports exactly which
//                               tags it gave up on.
//
// With --ber a fourth act runs the downlink-corruption path: per-bit errors
// on every reader broadcast, survived by CRC-framed segmented broadcast
// with bounded retransmission.
//
// Act 5 moves up a layer: a supervised 4-reader fleet (core::Deployment,
// one channel per reader, disjoint zones, no churn) sweeps the same
// population with reader-level faults armed (crashes, stalls). Downed
// readers hand their unread tags to the next alive reader in ring order
// under a bounded handoff budget; the supervisor restarts them with
// exponential backoff. The fleet delivers or lists every tag — never
// silently drops one — and the demo prints the health ledger to prove it.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/fault_demo
//   ./build/examples/fault_demo --ber 0.01 --segment-bits 32 --seed 7
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/env.hpp"
#include "common/table.hpp"
#include "core/deployment.hpp"
#include "obs/phase_timer.hpp"
#include "protocols/registry.hpp"
#include "sim/verify.hpp"

int main(int argc, char** argv) {
  using namespace rfid;

  double ber = 0.0;
  std::size_t segment_bits = 32;
  std::uint64_t seed = 7;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << arg << " needs a value\n";
        std::exit(EXIT_FAILURE);
      }
      return argv[++i];
    };
    if (arg == "--ber") {
      const auto parsed = parse_fraction_arg(value());
      if (!parsed || *parsed > 1.0) {
        std::cerr << "--ber must be a decimal in [0, 1]\n";
        return EXIT_FAILURE;
      }
      ber = *parsed;
    } else if (arg == "--segment-bits") {
      const auto parsed = parse_size_arg(value());
      if (!parsed || *parsed > std::numeric_limits<unsigned>::max()) {
        std::cerr << "--segment-bits must be a positive 32-bit integer\n";
        return EXIT_FAILURE;
      }
      segment_bits = *parsed;
    } else if (arg == "--seed") {
      const auto parsed = parse_u64(value());
      if (!parsed) {
        std::cerr << "--seed must be a base-10 unsigned integer\n";
        return EXIT_FAILURE;
      }
      seed = *parsed;
    } else {
      std::cerr << "usage: " << argv[0]
                << " [--ber X] [--segment-bits N] [--seed S]\n";
      return EXIT_FAILURE;
    }
  }

  Xoshiro256ss rng(seed);
  const tags::TagPopulation population =
      tags::TagPopulation::uniform_random(1000, rng);
  const auto protocol = protocols::make_protocol(protocols::ProtocolKind::kTpp);

  // Act 1 — the paper's clean channel.
  sim::SessionConfig clean;
  clean.seed = 99;

  // Act 2 — same workload over a bursty link (about 11% stationary loss in
  // multi-reply fades), no recovery policy: garbled tags simply stay awake.
  sim::SessionConfig bursty = clean;
  bursty.fault.link = fault::LinkModel::kGilbertElliott;

  // Act 3 — bursts plus churn plus the recovery policy. Five tags leave at
  // round 2 (any collected in round 1 stay collected); two of them come
  // back at round 5. Bounded re-polls (budget 6) collect everything present
  // and name exactly the departed-and-never-read tags.
  sim::SessionConfig recovered = bursty;
  for (std::size_t i = 0; i < 5; ++i) {
    recovered.fault.churn.push_back(
        {2, population[i * 100].id(), fault::ChurnEvent::Kind::kDepart});
  }
  for (std::size_t i = 0; i < 2; ++i) {
    recovered.fault.churn.push_back(
        {5, population[i * 100].id(), fault::ChurnEvent::Kind::kArrive});
  }
  recovered.recovery.enabled = true;
  recovered.recovery.retry_budget = 6;

  // Act 4 (only with --ber) — downlink bit errors survived by CRC framing:
  // every broadcast is split into `segment_bits`-bit segments with a 20-bit
  // header+CRC, corrupt segments are retransmitted with bounded backoff.
  sim::SessionConfig framed = clean;
  framed.fault.downlink_ber = ber;
  framed.framing.enabled = true;
  framed.framing.segment_payload_bits = static_cast<unsigned>(segment_bits);
  framed.recovery.enabled = true;
  framed.recovery.retry_budget = 12;

  TablePrinter table({"scenario", "collected", "undelivered", "corrupted",
                      "retries", "time (s)", "recovery (s)"});
  table.set_title("TPP, 1000 tags: clean vs burst loss vs recovery");
  struct Act final {
    std::string name;
    const sim::SessionConfig* config;
  };
  std::vector<Act> acts = {{"clean channel", &clean},
                           {"burst loss", &bursty},
                           {"burst+churn+recovery", &recovered}};
  if (ber > 0.0) {
    acts.push_back({"ber " + TablePrinter::num(ber) + " + framing", &framed});
  }

  sim::RunResult last;
  for (const auto& act : acts) {
    const sim::RunResult result = protocol->run(population, *act.config);
    table.add_row(
        {act.name, std::to_string(result.records.size()),
         std::to_string(result.metrics.undelivered),
         std::to_string(result.metrics.corrupted),
         std::to_string(result.metrics.retries),
         TablePrinter::num(result.exec_time_s()),
         TablePrinter::num(
             result.metrics.phases.get(obs::Phase::kRecovery) / 1e6)});
    last = result;
  }
  table.print(std::cout);

  if (ber > 0.0) {
    std::cout << "\nFraming overhead: " << last.metrics.framing_overhead_bits
              << " bits over " << last.metrics.segments_sent << " segments ("
              << last.metrics.segments_corrupted << " corrupted, "
              << last.metrics.segments_retransmitted << " retransmitted)\n";
  }

  // The final fault run must account for every tag: collected or
  // undelivered.
  const auto verify = sim::verify_complete_collection(population, last);
  if (!verify.ok) {
    std::cerr << "verification FAILED: " << verify.message << '\n';
    return EXIT_FAILURE;
  }
  std::cout << "\nTags the reader gave up on (retry budget exhausted):\n";
  for (const TagId& id : last.undelivered_ids)
    std::cout << "  " << id.to_hex() << '\n';
  std::cout << "\nEvery tag is accounted for: collected or undelivered, "
               "never silently dropped.\n";

  // Act 5 — the supervised fleet. Four readers split the inventory; the
  // reader-fault process crashes and stalls them mid-sweep. Handoffs rehome
  // a downed reader's unread tags; the supervisor's backoff restarts bring
  // the reader back for later ticks.
  core::DeploymentConfig fleet_config;
  fleet_config.readers = 4;
  fleet_config.channels = 4;  // every reader transmits every tick
  fleet_config.session.seed = seed;
  fleet_config.reader_faults.crash_per_tick = 0.02;
  fleet_config.reader_faults.stall_per_tick = 0.05;
  fleet_config.supervisor.backoff_initial_ticks = 2;
  const core::DeploymentReport fleet =
      core::run_deployment(population, fleet_config);

  TablePrinter fleet_table({"reader", "collected", "incarnations", "crashes",
                            "stalls", "restarts", "final health"});
  fleet_table.set_title("Act 5 — supervised 4-reader fleet under crash/stall "
                        "faults");
  for (std::size_t r = 0; r < fleet_config.readers; ++r) {
    const sim::Metrics& metrics = fleet.per_reader_metrics[r];
    fleet_table.add_row(
        {"R" + std::to_string(r), std::to_string(fleet.per_reader_delivered[r]),
         std::to_string(fleet.per_reader_incarnations[r]),
         std::to_string(metrics.reader_crashes),
         std::to_string(metrics.reader_stalls),
         std::to_string(metrics.reader_restarts),
         std::string(obs::to_string(fleet.per_reader_health[r]))});
  }
  std::cout << '\n';
  fleet_table.print(std::cout);

  std::cout << "\nFleet sweep: " << fleet.records.size() << " collected, "
            << fleet.undelivered_ids.size() << " undelivered, "
            << fleet.handoffs << " handoffs, " << fleet.ticks << " ticks, "
            << fleet.transitions.size() << " health transitions\n";
  if (!fleet.verified) {
    std::cerr << "fleet verification FAILED: a tag was neither delivered "
                 "nor listed\n";
    return EXIT_FAILURE;
  }
  std::cout << "Fleet accounting verified: every tag delivered or listed "
               "exactly once, across crashes and handoffs.\n";
  return EXIT_SUCCESS;
}
