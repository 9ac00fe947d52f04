// The SIMD wrapper's determinism contract (common/simd.hpp), gated in the
// main suite (ctest label `static`).
//
// The lane→tag rule says every kernel output depends only on the per-tag
// inputs, never on the backend or its vector width — so the scalar
// reference and the best compiled-in backend must agree bit-for-bit, and
// the clean-round fast path and the EHPP circle split built on the kernels
// must be invisible in the simulation metrics. The population sizes pin
// the lane-tail edge cases: 0, 1, width-1 (pure tail), width (pure
// vector), width+1 (vector + tail).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "fault/recovery.hpp"
#include "protocols/enhanced_hash_polling.hpp"
#include "protocols/hash_polling.hpp"
#include "protocols/round_engine.hpp"
#include "sim/session.hpp"
#include "tags/population.hpp"
#include "tags/soa.hpp"

namespace rfid {
namespace {

std::vector<std::size_t> lane_tail_sizes() {
  const std::size_t w = simd::lanes();
  std::vector<std::size_t> sizes{0, 1};
  if (w > 1) {
    sizes.push_back(w - 1);
    sizes.push_back(w);
    sizes.push_back(w + 1);
  }
  sizes.push_back(4 * w + 3);  // several full vectors plus a ragged tail
  sizes.push_back(1000);
  return sizes;
}

TEST(SimdKernels, BestBackendIsCompiledInAndNamed) {
  const simd::Backend best = simd::best_backend();
  EXPECT_GE(simd::lanes(), 1u);
  EXPECT_STRNE(simd::backend_name(best), "");
}

TEST(SimdKernels, HashIndicesMatchScalarAtLaneTails) {
  Xoshiro256ss rng(20260809);
  for (const std::size_t n : lane_tail_sizes()) {
    std::vector<std::uint64_t> id_hi(n);
    std::vector<std::uint64_t> id_lo(n);
    for (std::size_t i = 0; i < n; ++i) {
      id_hi[i] = rng();
      id_lo[i] = rng();
    }
    for (const unsigned h : {0u, 1u, 5u, 12u, 30u}) {
      const std::uint64_t seed = rng();
      std::vector<std::uint32_t> scalar(n, 0xDEADBEEF);
      std::vector<std::uint32_t> vec(n, 0xFEEDFACE);
      simd::hash_indices(seed, id_hi.data(), id_lo.data(), scalar.data(), n,
                         h, simd::Backend::kScalar);
      simd::hash_indices(seed, id_hi.data(), id_lo.data(), vec.data(), n, h,
                         simd::best_backend());
      EXPECT_EQ(scalar, vec) << "n=" << n << " h=" << h;
      for (const std::uint32_t idx : scalar)
        EXPECT_LT(idx, 1ull << h) << "n=" << n << " h=" << h;
    }
  }
}

TEST(SimdKernels, CountSingletonsMatchesScalar) {
  Xoshiro256ss rng(424242);
  for (const std::size_t f :
       {std::size_t{0}, std::size_t{1}, std::size_t{15}, std::size_t{16},
        std::size_t{17}, std::size_t{1024}}) {
    std::vector<std::uint32_t> counts(f);
    for (auto& c : counts) c = static_cast<std::uint32_t>(rng() % 4);
    EXPECT_EQ(simd::count_singletons(counts.data(), f, simd::Backend::kScalar),
              simd::count_singletons(counts.data(), f, simd::best_backend()))
        << "f=" << f;
  }
}

TEST(SimdKernels, CompactNonsingletonsMatchesScalarAndKeepsOrder) {
  Xoshiro256ss rng(777);
  for (const std::size_t n : lane_tail_sizes()) {
    const std::size_t f = 16;
    std::vector<std::uint32_t> slot(n);
    std::vector<std::uint32_t> counts(f, 0);
    std::vector<std::uint64_t> a(n);
    std::vector<std::uint64_t> b(n);
    std::vector<std::uint64_t> c(n);
    for (std::size_t i = 0; i < n; ++i) {
      slot[i] = static_cast<std::uint32_t>(rng() % f);
      ++counts[slot[i]];
      a[i] = i;  // ascending payloads make order violations visible
      b[i] = rng();
      c[i] = rng();
    }
    auto a2 = a;
    auto b2 = b;
    auto c2 = c;
    const std::size_t kept_scalar =
        simd::compact_nonsingletons(counts.data(), slot.data(), a.data(),
                                    b.data(), c.data(), n,
                                    simd::Backend::kScalar);
    const std::size_t kept_vec =
        simd::compact_nonsingletons(counts.data(), slot.data(), a2.data(),
                                    b2.data(), c2.data(), n,
                                    simd::best_backend());
    ASSERT_EQ(kept_scalar, kept_vec) << "n=" << n;
    for (std::size_t i = 0; i < kept_scalar; ++i) {
      EXPECT_EQ(a[i], a2[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(b[i], b2[i]) << "n=" << n << " i=" << i;
      EXPECT_EQ(c[i], c2[i]) << "n=" << n << " i=" << i;
    }
    for (std::size_t i = 1; i < kept_scalar; ++i)
      EXPECT_LT(a[i - 1], a[i]) << "order not preserved at n=" << n;
  }
}

/// Checks that `soa` holds exactly `want`, in order, with each element's ID
/// words moved along with its tag.
void expect_holds(const tags::TagSoA& soa,
                  const std::vector<const tags::Tag*>& want,
                  const char* side) {
  ASSERT_EQ(soa.size(), want.size()) << side;
  for (std::size_t i = 0; i < want.size(); ++i) {
    const TagId& id = want[i]->id();
    EXPECT_EQ(soa.tag(i), want[i]) << side << " i=" << i;
    EXPECT_EQ(soa.id_hi(i), (std::uint64_t{id.words[0]} << 32) | id.words[1])
        << side << " i=" << i;
    EXPECT_EQ(soa.id_lo(i), id.words[2]) << side << " i=" << i;
  }
}

TEST(SimdKernels, SplitCircleMatchesPerTagReference) {
  // Lane tails, TagSoA::split_circle's chunk edges, and a population of
  // many chunks, at thresholds that admit no tag, about half and every
  // tag. Both backends must give the reference's members and survivors in
  // the reference's order.
  const std::size_t w = simd::lanes();
  const std::size_t chunk = tags::TagSoA::kSplitChunk;
  const std::uint64_t modulus = 1u << 20;
  Xoshiro256ss rng(20261017);
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, w - 1, w, w + 1, chunk - 1, chunk,
        chunk + 1, std::size_t{10'000}}) {
    const auto pop = tags::TagPopulation::uniform_random(n, rng);
    for (const std::uint64_t threshold :
         {std::uint64_t{0}, modulus / 2, modulus}) {
      const std::uint64_t seed = rng();
      std::vector<const tags::Tag*> members;
      std::vector<const tags::Tag*> rest;
      for (const tags::Tag& tag : pop) {
        if (tag_index_mod(seed, tag.id(), modulus) < threshold)
          members.push_back(&tag);
        else
          rest.push_back(&tag);
      }
      for (const simd::Backend backend :
           {simd::Backend::kScalar, simd::best_backend()}) {
        SCOPED_TRACE(std::string(simd::backend_name(backend)) + " n=" +
                     std::to_string(n) + " f=" + std::to_string(threshold));
        tags::TagSoA active;
        for (const tags::Tag& tag : pop) active.push_back(&tag);
        tags::TagSoA joined;
        active.split_circle(seed, modulus, threshold, joined, backend);
        expect_holds(joined, members, "members");
        expect_holds(active, rest, "survivors");
      }
    }
  }
}

/// Drains a fresh HPP session and returns its metrics, pinning the kernel
/// backend the engine uses.
sim::Metrics drain_hpp(std::size_t n, std::uint64_t seed,
                       simd::Backend backend, bool keep_records) {
  Xoshiro256ss rng(seed);
  const auto pop = tags::TagPopulation::uniform_random(n, rng);
  sim::SessionConfig config;
  config.seed = seed ^ 0x9E3779B97F4A7C15ull;
  config.keep_records = keep_records;
  sim::Session session(pop, config);
  tags::TagSoA active = protocols::make_devices(session);
  fault::RecoveryCoordinator recovery(config.recovery);
  protocols::RoundEngine engine(session, recovery);
  engine.set_hash_backend(backend);
  protocols::HppRoundPolicy policy{protocols::HppRoundConfig{}};
  engine.run_rounds(active, policy);
  return session.metrics();
}

/// Drains a fresh EHPP session circle by circle (as Ehpp::run does),
/// pinning the backend of every circle's split and of its rounds.
sim::Metrics drain_ehpp(std::size_t n, std::uint64_t seed,
                        simd::Backend backend) {
  Xoshiro256ss rng(seed);
  const auto pop = tags::TagPopulation::uniform_random(n, rng);
  sim::SessionConfig config;
  config.seed = seed ^ 0x9E3779B97F4A7C15ull;
  sim::Session session(pop, config);
  tags::TagSoA active = protocols::make_devices(session);
  fault::RecoveryCoordinator recovery(config.recovery);
  protocols::RoundEngine engine(session, recovery);
  engine.set_hash_backend(backend);
  const protocols::Ehpp::Config ehpp;
  const std::size_t subset_target =
      protocols::Ehpp(ehpp).effective_subset_size();
  while (!active.empty())
    EXPECT_TRUE(protocols::run_ehpp_circle(session, engine, active, ehpp,
                                           subset_target));
  return session.metrics();
}

void expect_identical(const sim::Metrics& x, const sim::Metrics& y) {
  EXPECT_EQ(x.polls, y.polls);
  EXPECT_EQ(x.rounds, y.rounds);
  EXPECT_EQ(x.vector_bits, y.vector_bits);
  EXPECT_EQ(x.command_bits, y.command_bits);
  EXPECT_EQ(x.tag_bits, y.tag_bits);
  EXPECT_EQ(x.slots_wasted, y.slots_wasted);
  // Bit-exact, not approximately equal: the batched fast path must replay
  // the per-poll floating-point accumulation in the same order.
  EXPECT_EQ(x.time_us, y.time_us);
}

TEST(SimdEngine, BackendIsInvisibleInMetricsAtLaneTails) {
  for (const std::size_t n : lane_tail_sizes()) {
    const auto scalar =
        drain_hpp(n, 31337 + n, simd::Backend::kScalar, false);
    const auto vec = drain_hpp(n, 31337 + n, simd::best_backend(), false);
    expect_identical(scalar, vec);
  }
}

TEST(SimdEngine, EhppSplitBackendIsInvisibleInMetrics) {
  // Every circle's membership split runs on the engine's backend.
  for (const std::size_t n : {std::size_t{1000}, std::size_t{5000}}) {
    const auto scalar = drain_ehpp(n, 4242 + n, simd::Backend::kScalar);
    const auto vec = drain_ehpp(n, 4242 + n, simd::best_backend());
    EXPECT_GT(vec.circles, 1u);
    EXPECT_EQ(scalar.circles, vec.circles);
    expect_identical(scalar, vec);
  }
}

TEST(SimdEngine, CleanFastPathIsInvisibleInMetrics) {
  // keep_records=true forces the per-poll dispatch (records need per-poll
  // output); keep_records=false takes the batched clean-round fast path.
  // Everything the two paths account — polls, bits, wall-clock — must be
  // bit-identical.
  for (const std::size_t n : lane_tail_sizes()) {
    const auto slow = drain_hpp(n, 90210 + n, simd::best_backend(), true);
    const auto fast = drain_hpp(n, 90210 + n, simd::best_backend(), false);
    expect_identical(slow, fast);
  }
}

}  // namespace
}  // namespace rfid
