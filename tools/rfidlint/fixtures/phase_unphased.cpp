// phase-accounting rule fixture. Expected findings: unphased-charge on
// line 29 (no phase attribution within the window), unphased-charge on
// line 33 (a sink callback named like a phase charge is not an attribution)
// and raw-phase-mutation on line 38 (direct += into the breakdown array
// outside src/obs).
#include <cstdint>

namespace fixture {

struct Breakdown {
  std::uint64_t us[6] = {0, 0, 0, 0, 0, 0};
};

struct Metrics {
  std::uint64_t time_us = 0;
  Breakdown phases;
};

struct Sink {
  void on_phase(int phase, std::uint64_t us) { last = us * (phase >= 0); }
  std::uint64_t last = 0;
};

struct Loop {
  Metrics metrics;
  Sink sink;

  void charge_without_phase(std::uint64_t dt) {
    metrics.time_us += dt;
  }

  void charge_through_sink(std::uint64_t dt) {
    metrics.time_us += dt;
    sink.on_phase(1, dt);
  }

  void mutate_breakdown(std::uint64_t dt) {
    metrics.phases.us[2] += dt;
  }
};

}  // namespace fixture
