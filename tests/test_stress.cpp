// Scale/stress tests. Kept modest by default; set RFID_STRESS_N to push
// harder (e.g. 200000) on beefier machines.
#include <gtest/gtest.h>

#include <chrono>

#include "common/env.hpp"
#include "core/polling.hpp"

namespace rfid {
namespace {

using core::ProtocolKind;

std::size_t stress_n() {
  return static_cast<std::size_t>(env_u64("RFID_STRESS_N", 50000));
}

TEST(Stress, TppAtScaleStaysOnHeadlineNumbers) {
  Xoshiro256ss rng(1);
  const auto pop = tags::TagPopulation::uniform_random(stress_n(), rng);
  sim::SessionConfig config;
  config.seed = 2;
  config.keep_records = false;
  const auto result =
      protocols::make_protocol(ProtocolKind::kTpp)->run(pop, config);
  EXPECT_EQ(result.metrics.polls, pop.size());
  EXPECT_GT(result.avg_vector_bits(), 2.7);
  EXPECT_LT(result.avg_vector_bits(), 3.5);
}

TEST(Stress, AllProtocolsCompleteAtScale) {
  Xoshiro256ss rng(3);
  const std::size_t n = stress_n() / 2;
  const auto pop = tags::TagPopulation::uniform_random(n, rng);
  sim::SessionConfig config;
  config.seed = 4;
  config.keep_records = false;
  for (const ProtocolKind kind : protocols::all_protocols()) {
    const auto result = protocols::make_protocol(kind)->run(pop, config);
    EXPECT_EQ(result.metrics.polls, n) << protocols::to_string(kind);
  }
}

TEST(Stress, MemoryBoundedRunWithoutRecords) {
  // keep_records=false must not allocate per-tag records.
  Xoshiro256ss rng(7);
  const auto pop = tags::TagPopulation::uniform_random(20000, rng);
  sim::SessionConfig config;
  config.seed = 8;
  config.keep_records = false;
  const auto result =
      protocols::make_protocol(ProtocolKind::kEhpp)->run(pop, config);
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.metrics.polls, 20000u);
}

TEST(Stress, SimulatedSecondsFarExceedWallSeconds) {
  // The simulator must be usefully faster than real C1G2 air time; at
  // n = 10k TPP simulates ~4.4 s of air in well under a second of CPU.
  Xoshiro256ss rng(9);
  const auto pop = tags::TagPopulation::uniform_random(10000, rng);
  sim::SessionConfig config;
  config.seed = 10;
  config.keep_records = false;
  const auto start = std::chrono::steady_clock::now();
  const auto result =
      protocols::make_protocol(ProtocolKind::kTpp)->run(pop, config);
  const double wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GT(result.exec_time_s(), wall_s);
}

}  // namespace
}  // namespace rfid
