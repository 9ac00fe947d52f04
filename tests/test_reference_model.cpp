// HPP and TPP against tests/reference_model, an independent per-tag model
// of the clean channel that shares no code with the round engine.
//
// Each protocol runs 200 random configurations: n log-uniform in
// [1, 20000] (so the small populations where h = 0 and h = 1 occur are
// drawn often), a random session seed, and info_bits in [1, 64]. Every
// configuration runs twice, record-free (the engine's batched clean-round
// fast path) and with per-poll records (the per-poll dispatch), and both
// must equal the model exactly: every counter, the clock and each phase,
// bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/tag_id.hpp"
#include "metrics_equal.hpp"
#include "protocols/hash_polling.hpp"
#include "protocols/tree_polling.hpp"
#include "reference_model.hpp"
#include "sim/session.hpp"
#include "tags/population.hpp"

namespace rfid {
namespace {

constexpr int kConfigurations = 200;
constexpr std::size_t kMaxTags = 20000;

struct Configuration final {
  std::size_t n = 0;
  std::uint64_t population_seed = 0;
  std::uint64_t session_seed = 0;
  std::size_t info_bits = 0;
};

Configuration draw(Xoshiro256ss& rng) {
  Configuration c;
  const double u = rng.uniform01();
  c.n = static_cast<std::size_t>(
      std::exp(u * std::log(static_cast<double>(kMaxTags))));
  c.n = std::clamp<std::size_t>(c.n, 1, kMaxTags);
  c.population_seed = rng();
  c.session_seed = rng();
  c.info_bits = 1 + static_cast<std::size_t>(rng.below(64));
  return c;
}

void check(reference::Protocol kind, const protocols::PollingProtocol& engine,
           std::uint64_t master_seed) {
  Xoshiro256ss rng(master_seed);
  std::size_t largest = 0;
  std::size_t smallest = kMaxTags;
  for (int i = 0; i < kConfigurations; ++i) {
    const Configuration c = draw(rng);
    largest = std::max(largest, c.n);
    smallest = std::min(smallest, c.n);
    Xoshiro256ss id_rng(c.population_seed);
    const auto population = tags::TagPopulation::uniform_random(c.n, id_rng);
    std::vector<TagId> ids;
    ids.reserve(c.n);
    for (const tags::Tag& tag : population) ids.push_back(tag.id());
    const obs::Metrics expected =
        reference::run_clean(kind, ids, c.session_seed, c.info_bits);
    ASSERT_EQ(expected.polls, c.n);

    for (const bool keep_records : {false, true}) {
      SCOPED_TRACE(std::string(engine.name()) + " #" + std::to_string(i) +
                   " n=" + std::to_string(c.n) +
                   " info_bits=" + std::to_string(c.info_bits) +
                   " records=" + std::to_string(keep_records));
      sim::SessionConfig config;
      config.seed = c.session_seed;
      config.info_bits = c.info_bits;
      config.keep_records = keep_records;
      expect_same_metrics(engine.run(population, config).metrics, expected);
    }
  }
  // The draw really spans the range it claims.
  EXPECT_LE(smallest, 3u);
  EXPECT_GE(largest, kMaxTags / 4);
}

TEST(ReferenceModel, HppMatchesEngineExactly) {
  check(reference::Protocol::kHpp, protocols::Hpp(), 0x5EED0001);
}

TEST(ReferenceModel, TppMatchesEngineExactly) {
  check(reference::Protocol::kTpp, protocols::Tpp(), 0x5EED0002);
}

TEST(ReferenceModel, TppSegmentsStayUnderEquationSixteen) {
  // The model's own TPP vector stays under the paper's 3.44 bits/tag bound
  // (Eq. 16) at a size where the per-round averages have settled.
  Xoshiro256ss id_rng(16);
  const auto population = tags::TagPopulation::uniform_random(20000, id_rng);
  std::vector<TagId> ids;
  for (const tags::Tag& tag : population) ids.push_back(tag.id());
  const obs::Metrics m =
      reference::run_clean(reference::Protocol::kTpp, ids, 1, 1);
  EXPECT_LT(m.avg_vector_bits(), 3.44);
}

}  // namespace
}  // namespace rfid
