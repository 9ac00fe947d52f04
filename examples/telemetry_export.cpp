// Machine-readable telemetry: run one inventory and emit the full result as
// JSON on stdout (dashboards, regression tooling). Optionally streams the
// air-interface event trace as JSON Lines — one typed event per round start,
// broadcast, poll, reply and slot (see docs/observability.md).
//
//   ./telemetry_export [protocol] [n] [--trace-jsonl PATH]
//     defaults: TPP 2000; n must be a positive base-10 integer
#include <cstdlib>
#include <iostream>
#include <string_view>

#include "common/env.hpp"
#include "core/polling.hpp"
#include "obs/trace.hpp"
#include "sim/report_io.hpp"

int main(int argc, char** argv) {
  using namespace rfid;

  core::ProtocolKind kind = core::ProtocolKind::kTpp;
  std::size_t n = 2000;
  std::string trace_path;

  const auto usage = [&] {
    std::cerr << "usage: " << argv[0]
              << " [protocol] [n] [--trace-jsonl PATH]\n"
                 "  n must be a positive integer (strictly parsed)\n";
    return EXIT_FAILURE;
  };

  int arg = 1;
  if (arg < argc && std::string_view(argv[arg]).substr(0, 2) != "--") {
    const auto parsed = protocols::parse_protocol(argv[arg]);
    if (!parsed) {
      std::cerr << "unknown protocol: " << argv[arg] << '\n';
      return usage();
    }
    kind = *parsed;
    ++arg;
  }
  if (arg < argc && std::string_view(argv[arg]).substr(0, 2) != "--") {
    const auto parsed = parse_size_arg(argv[arg]);
    if (!parsed) {
      std::cerr << "bad population size: " << argv[arg] << '\n';
      return usage();
    }
    n = *parsed;
    ++arg;
  }
  for (; arg < argc; ++arg) {
    if (std::string_view(argv[arg]) == "--trace-jsonl" && arg + 1 < argc) {
      trace_path = argv[++arg];
    } else {
      std::cerr << "unexpected argument: " << argv[arg] << '\n';
      return usage();
    }
  }

  Xoshiro256ss rng(2026);
  const auto population = tags::TagPopulation::uniform_random(n, rng);
  sim::SessionConfig config;
  config.seed = 7;
  config.keep_records = false;

  // The sink must outlive the run; it flushes on session finish.
  std::optional<obs::JsonlSink> jsonl;
  if (!trace_path.empty()) {
    try {
      jsonl.emplace(trace_path);
    } catch (const std::exception& e) {
      std::cerr << e.what() << '\n';
      return EXIT_FAILURE;
    }
    config.tracer = &*jsonl;
  }

  const auto result = protocols::make_protocol(kind)->run(population, config);
  sim::write_json(std::cout, result);
  return EXIT_SUCCESS;
}
