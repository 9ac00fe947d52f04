// Multi-reader dock-door deployment (paper Section II-A: multiple readers
// under a collision-free schedule, logically one reader).
//
// A distribution centre has four dock doors, each with its own portal
// reader covering its own zone. The backend partitions the known inventory
// across the portals and each runs TPP over its share. The example
// contrasts the two ends of core::Deployment's channel schedule: all
// portals time-dividing one channel (C = 1) and every portal on its own
// channel, interrogating concurrently (C = 4).
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <utility>

#include "common/table.hpp"
#include "core/deployment.hpp"

int main() {
  using namespace rfid;

  constexpr std::size_t kInventory = 40000;
  constexpr std::size_t kPortals = 4;
  Xoshiro256ss rng(4);
  const tags::TagPopulation inventory =
      tags::TagPopulation::uniform_random(kInventory, rng);

  std::cout << "Distribution centre: " << kInventory << " tagged cartons, "
            << kPortals << " dock-door portals (TPP per portal)\n\n";

  TablePrinter table({"schedule", "makespan (s)", "total reader-busy (s)",
                      "covered exactly once"});
  core::DeploymentReport shared;
  for (const auto& [channels, label] :
       std::initializer_list<std::pair<std::size_t, const char*>>{
           {1, "time-division (1 channel)"},
           {kPortals, "spatially parallel (4 channels)"}}) {
    core::DeploymentConfig config;
    config.readers = kPortals;
    config.channels = channels;
    config.kind = protocols::ProtocolKind::kTpp;
    config.session.info_bits = 1;
    config.session.seed = 99;
    core::DeploymentReport report = core::run_deployment(inventory, config);
    if (!report.verified) {
      std::cerr << "coverage verification failed\n";
      return EXIT_FAILURE;
    }
    table.add_row({label, TablePrinter::num(report.makespan_s),
                   TablePrinter::num(report.total_busy_s),
                   report.verified ? "yes" : "NO"});
    if (channels == 1) shared = std::move(report);
  }
  table.print(std::cout);

  std::cout << "\nPer-portal share (time-division run):\n";
  for (std::size_t r = 0; r < kPortals; ++r) {
    const sim::Metrics& metrics = shared.per_reader_metrics[r];
    std::cout << "  portal " << r << ": " << metrics.polls << " cartons in "
              << TablePrinter::num(metrics.exec_time_s()) << " s (w = "
              << TablePrinter::num(metrics.avg_vector_bits()) << " bits)\n";
  }
  std::cout << "\nSeparate channels sweep in ~1/4 the wall-clock time; the"
               " hash partition\nkeeps every portal's share — and TPP's"
               " ~3-bit vector — balanced.\n";
  return EXIT_SUCCESS;
}
