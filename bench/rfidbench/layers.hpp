// Per-layer replays for the traced run.
//
// The traced run times top-level spans (population build, construction,
// each tick, ...) around the workload itself, then replays pieces of the
// same work through each layer's public functions to split host time by
// layer: a session's rounds through protocols::RoundEngine, and the
// recorded round shapes through the common/simd kernels.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench.hpp"
#include "protocols/registry.hpp"
#include "protocols/round_engine.hpp"
#include "sim/session.hpp"
#include "tags/population.hpp"
#include "tags/soa.hpp"

namespace rfidbench {

/// What one round broadcast: the awake-tag count, h and the hash seed.
struct RoundShape final {
  std::size_t size = 0;
  unsigned index_length = 0;
  std::uint64_t seed = 0;
};

/// Host time of one session replayed through the public engine.
struct SessionReplay final {
  rfid::obs::Metrics metrics{};  ///< Session::finish fold
  double build_s = 0.0;          ///< sim::Session construction
  double rounds_s = 0.0;         ///< every round of the run
};

/// Runs `active` to completion on a fresh Session over `population`, the
/// way the protocol's own run() does (HPP/TPP through RoundEngine rounds,
/// EHPP through run_ehpp_circle). HPP and TPP rounds append their shapes.
[[nodiscard]] SessionReplay replay_session(
    rfid::protocols::ProtocolKind kind,
    const rfid::tags::TagPopulation& population,
    const rfid::sim::SessionConfig& config, rfid::tags::TagSoA active,
    std::vector<RoundShape>& shapes);

/// Devices for every tag of `population`, in population order.
[[nodiscard]] rfid::tags::TagSoA all_devices(
    const rfid::tags::TagPopulation& population);

/// Host cost of the common/simd kernels at the recorded round shapes.
struct KernelCosts final {
  double hash_ns_per_tag = 0.0;         ///< best backend
  double hash_scalar_ns_per_tag = 0.0;  ///< scalar reference
  double count_ns_per_bucket = 0.0;     ///< count_singletons
  double compact_ns_per_tag = 0.0;      ///< compact_nonsingletons
};

/// Replays every shape whose size fits `devices` over its ID columns (the
/// median of three passes). Checks that both backends pick identical
/// indices — the lane->tag rule.
[[nodiscard]] KernelCosts replay_kernels(const std::vector<RoundShape>& shapes,
                                         const rfid::tags::TagSoA& devices,
                                         Checks& checks);

}  // namespace rfidbench
