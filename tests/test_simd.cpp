// The SIMD wrapper's determinism contract (common/simd.hpp), gated in the
// main suite (ctest label `static`).
//
// The lane→tag rule says every kernel output depends only on the per-tag
// inputs, never on the backend or its vector width — so the scalar
// reference and each vector backend must agree bit-for-bit, and the
// clean-round fast path and the EHPP circle split built on the kernels
// must be invisible in the simulation metrics. The backend-equality tests
// ask for both vector backends: the dispatcher runs the scalar reference
// for one the build left out or the running CPU lacks, so the loop is safe
// on any host, and an AVX-512 host still runs the AVX2 kernels. The
// population sizes pin the lane-tail edge cases of both widths (4 and 8
// lanes): 0, 1, width-1 (pure tail), width (pure vector), width+1 (vector
// + tail); the churn scan's kernels (hash_words, due_positions,
// erase_positions) run at every length 0-67 and at 10^4. The TagSoA tests
// check that every mutator, the kernel-backed compaction and erase on each
// backend included, keeps the churn-horizon column with its tags.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "fault/recovery.hpp"
#include "metrics_equal.hpp"
#include "protocols/enhanced_hash_polling.hpp"
#include "protocols/hash_polling.hpp"
#include "protocols/round_engine.hpp"
#include "protocols/tree_polling.hpp"
#include "sim/session.hpp"
#include "tags/population.hpp"
#include "tags/soa.hpp"

namespace rfid {
namespace {

constexpr simd::Backend kVectorBackends[] = {simd::Backend::kAvx2,
                                             simd::Backend::kAvx512};

// 4w + 3 (19, 35) is several full vectors plus a ragged tail.
constexpr std::size_t kLaneTailSizes[] = {0, 1, 3, 4, 5, 7, 8, 9, 19, 35, 1000};

TEST(SimdKernels, BestBackendIsCompiledInAndNamed) {
  const simd::Backend best = simd::best_backend();
  EXPECT_EQ(best, simd::best_backend());
  EXPECT_STRNE(simd::backend_name(best), "");
}

TEST(SimdKernels, HashIndicesMatchScalarAtLaneTails) {
  Xoshiro256ss rng(20260809);
  for (const std::size_t n : kLaneTailSizes) {
    std::vector<std::uint64_t> id_hi(n);
    std::vector<std::uint64_t> id_lo(n);
    for (std::size_t i = 0; i < n; ++i) {
      id_hi[i] = rng();
      id_lo[i] = rng();
    }
    // h = 32 is the churn floors' pick (core::PlacementRules).
    for (const unsigned h : {0u, 1u, 5u, 12u, 30u, 32u}) {
      const std::uint64_t seed = rng();
      std::vector<std::uint32_t> scalar(n, 0xDEADBEEF);
      simd::hash_indices(seed, id_hi.data(), id_lo.data(), scalar.data(), n,
                         h, simd::Backend::kScalar);
      for (const simd::Backend backend : kVectorBackends) {
        std::vector<std::uint32_t> vec(n, 0xFEEDFACE);
        simd::hash_indices(seed, id_hi.data(), id_lo.data(), vec.data(), n, h,
                           backend);
        EXPECT_EQ(scalar, vec) << simd::backend_name(backend) << " n=" << n
                               << " h=" << h;
      }
      for (const std::uint32_t idx : scalar)
        EXPECT_LT(idx, 1ull << h) << "n=" << n << " h=" << h;
    }
  }
}

TEST(SimdKernels, CountSingletonsMatchesScalar) {
  // 32-bit counts: AVX2 takes 8 per vector, AVX-512 16.
  Xoshiro256ss rng(424242);
  for (const std::size_t f :
       {std::size_t{0}, std::size_t{1}, std::size_t{7}, std::size_t{8},
        std::size_t{9}, std::size_t{15}, std::size_t{16}, std::size_t{17},
        std::size_t{1024}}) {
    std::vector<std::uint32_t> counts(f);
    for (auto& c : counts) c = static_cast<std::uint32_t>(rng() % 4);
    const std::size_t scalar =
        simd::count_singletons(counts.data(), f, simd::Backend::kScalar);
    for (const simd::Backend backend : kVectorBackends) {
      EXPECT_EQ(scalar, simd::count_singletons(counts.data(), f, backend))
          << simd::backend_name(backend) << " f=" << f;
    }
  }
}

TEST(SimdKernels, CompactNonsingletonsMatchesScalarAndKeepsOrder) {
  Xoshiro256ss rng(777);
  for (const std::size_t n : kLaneTailSizes) {
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
    auto a1 = a;
    auto b1 = b;
    auto c1 = c;
    const std::size_t kept_scalar =
        simd::compact_nonsingletons(counts.data(), slot.data(), a1.data(),
                                    b1.data(), c1.data(), n,
                                    simd::Backend::kScalar);
    for (std::size_t i = 1; i < kept_scalar; ++i)
      EXPECT_LT(a1[i - 1], a1[i]) << "order not preserved at n=" << n;
    for (const simd::Backend backend : kVectorBackends) {
      SCOPED_TRACE(std::string(simd::backend_name(backend)) +
                   " n=" + std::to_string(n));
      auto a2 = a;
      auto b2 = b;
      auto c2 = c;
      const std::size_t kept_vec = simd::compact_nonsingletons(
          counts.data(), slot.data(), a2.data(), b2.data(), c2.data(), n,
          backend);
      ASSERT_EQ(kept_scalar, kept_vec);
      for (std::size_t i = 0; i < kept_scalar; ++i) {
        EXPECT_EQ(a1[i], a2[i]) << "i=" << i;
        EXPECT_EQ(b1[i], b2[i]) << "i=" << i;
        EXPECT_EQ(c1[i], c2[i]) << "i=" << i;
      }
    }
  }
}

TEST(SimdKernels, CompactNonsingletonsCarriesAFourthColumn) {
  // The nullable 32-bit column (TagSoA's churn horizons) against the
  // scalar reference, at every length up to eight AVX-512 vectors plus a
  // ragged tail and at a length of many vectors. The three 64-bit columns
  // come out as they do without the fourth.
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 67; ++n) sizes.push_back(n);
  sizes.push_back(10'000);
  Xoshiro256ss rng(20261020);
  for (const std::size_t n : sizes) {
    const std::size_t f = 32;
    std::vector<std::uint32_t> slot(n);
    std::vector<std::uint32_t> counts(f, 0);
    std::vector<std::uint64_t> a(n), b(n), c(n);
    std::vector<std::uint32_t> d(n);
    for (std::size_t i = 0; i < n; ++i) {
      slot[i] = static_cast<std::uint32_t>(rng() % f);
      ++counts[slot[i]];
      a[i] = i;
      b[i] = rng();
      c[i] = rng();
      d[i] = static_cast<std::uint32_t>(rng());
    }
    auto a1 = a, b1 = b, c1 = c;
    auto d1 = d;
    const std::size_t kept = simd::compact_nonsingletons(
        counts.data(), slot.data(), a1.data(), b1.data(), c1.data(), n,
        simd::Backend::kScalar, d1.data());
    for (const simd::Backend backend :
         {simd::Backend::kScalar, simd::Backend::kAvx2,
          simd::Backend::kAvx512}) {
      SCOPED_TRACE(std::string(simd::backend_name(backend)) +
                   " n=" + std::to_string(n));
      auto a2 = a, b2 = b, c2 = c;
      auto d2 = d;
      ASSERT_EQ(simd::compact_nonsingletons(counts.data(), slot.data(),
                                            a2.data(), b2.data(), c2.data(),
                                            n, backend, d2.data()),
                kept);
      auto a3 = a, b3 = b, c3 = c;
      ASSERT_EQ(simd::compact_nonsingletons(counts.data(), slot.data(),
                                            a3.data(), b3.data(), c3.data(),
                                            n, backend),
                kept);
      for (std::size_t i = 0; i < kept; ++i) {
        ASSERT_EQ(a1[i], a2[i]) << "i=" << i;
        ASSERT_EQ(b1[i], b2[i]) << "i=" << i;
        ASSERT_EQ(c1[i], c2[i]) << "i=" << i;
        ASSERT_EQ(d1[i], d2[i]) << "i=" << i;
        ASSERT_EQ(d[a1[i]], d2[i]) << "i=" << i;  // still its element's
        ASSERT_EQ(a2[i], a3[i]) << "i=" << i;
        ASSERT_EQ(b2[i], b3[i]) << "i=" << i;
        ASSERT_EQ(c2[i], c3[i]) << "i=" << i;
      }
    }
  }
}

/// Every length up to eight AVX-512 vectors plus a ragged tail, and a
/// length of many vectors.
std::vector<std::size_t> churn_kernel_sizes() {
  std::vector<std::size_t> sizes;
  for (std::size_t n = 0; n <= 67; ++n) sizes.push_back(n);
  sizes.push_back(10'000);
  return sizes;
}

constexpr simd::Backend kAllBackends[] = {
    simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kAvx512};

TEST(SimdKernels, HashWordsMatchTheScalarChain) {
  // Full-width H(r, id) under 0, 1 and the churn scan's 6 keys, one row of
  // n per key, against rfid::tag_hash_words itself.
  Xoshiro256ss rng(20261101);
  for (const std::size_t n : churn_kernel_sizes()) {
    std::vector<std::uint64_t> id_hi(n), id_lo(n);
    for (std::size_t i = 0; i < n; ++i) {
      id_hi[i] = rng();
      id_lo[i] = rng();
    }
    for (const std::size_t key_count : {0u, 1u, 6u}) {
      std::vector<std::uint64_t> keys(key_count);
      for (std::uint64_t& key : keys) key = rng();
      for (const simd::Backend backend : kAllBackends) {
        SCOPED_TRACE(std::string(simd::backend_name(backend)) +
                     " n=" + std::to_string(n) +
                     " keys=" + std::to_string(key_count));
        // One spare element past the rows: a kernel store past them shows.
        std::vector<std::uint64_t> out(key_count * n + 1, 0xDEADBEEF);
        simd::hash_words(keys.data(), key_count, id_hi.data(), id_lo.data(),
                         out.data(), n, backend);
        for (std::size_t k = 0; k < key_count; ++k)
          for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(out[k * n + i],
                      tag_hash_words(keys[k], id_hi[i], id_lo[i]))
                << "k=" << k << " i=" << i;
        EXPECT_EQ(out.back(), 0xDEADBEEFu);
      }
    }
  }
}

TEST(SimdKernels, DuePositionsMatchScalar) {
  // Horizons around the tick, with the tick at 0, in the middle and at
  // UINT32_MAX (where every horizon is due).
  Xoshiro256ss rng(20261102);
  for (const std::size_t n : churn_kernel_sizes()) {
    std::vector<std::uint32_t> horizon(n);
    for (std::uint32_t& h : horizon)
      h = rng() % 4 == 0 ? static_cast<std::uint32_t>(rng())
                         : static_cast<std::uint32_t>(990 + rng() % 20);
    for (const std::uint32_t tick : {0u, 1000u, UINT32_MAX}) {
      std::vector<std::uint32_t> want;
      for (std::size_t i = 0; i < n; ++i)
        if (horizon[i] <= tick) want.push_back(static_cast<std::uint32_t>(i));
      for (const simd::Backend backend : kAllBackends) {
        SCOPED_TRACE(std::string(simd::backend_name(backend)) +
                     " n=" + std::to_string(n) +
                     " tick=" + std::to_string(tick));
        std::vector<std::uint32_t> out(n + 1, 0xFEEDFACE);
        const std::size_t due =
            simd::due_positions(horizon.data(), n, tick, out.data(), backend);
        ASSERT_EQ(due, want.size());
        EXPECT_TRUE(std::equal(want.begin(), want.end(), out.begin()));
        EXPECT_EQ(out[n], 0xFEEDFACEu);
      }
    }
  }
}

/// Erase lists for n elements: none, the first, the last, every one, runs
/// across 8-lane groups, every other one and a sparse random draw.
std::vector<std::vector<std::uint32_t>> erase_lists(std::size_t n,
                                                    Xoshiro256ss& rng) {
  std::vector<std::vector<std::uint32_t>> lists(1);
  if (n == 0) return lists;
  const auto last = static_cast<std::uint32_t>(n - 1);
  lists.push_back({0});
  lists.push_back({last});
  std::vector<std::uint32_t> every, runs, alternate, sparse;
  for (std::uint32_t i = 0; i <= last; ++i) {
    every.push_back(i);
    if (i % 16 >= 5 && i % 16 <= 11) runs.push_back(i);  // 5..11 of 16
    if (i % 2 == 1) alternate.push_back(i);
    if (rng() % 7 == 0) sparse.push_back(i);
  }
  for (auto* list : {&every, &runs, &alternate, &sparse})
    if (!list->empty()) lists.push_back(*list);
  return lists;
}

TEST(SimdKernels, ErasePositionsMatchScalar) {
  // Against a reference that keeps the elements not listed, with and
  // without the 32-bit column. Ascending payloads show any reordering.
  Xoshiro256ss rng(20261103);
  for (const std::size_t n : churn_kernel_sizes()) {
    std::vector<std::uint64_t> a(n), b(n), c(n);
    std::vector<std::uint32_t> d(n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = i;
      b[i] = rng();
      c[i] = rng();
      d[i] = static_cast<std::uint32_t>(rng());
    }
    for (const std::vector<std::uint32_t>& erase : erase_lists(n, rng)) {
      std::vector<std::uint64_t> want_a, want_b, want_c;
      std::vector<std::uint32_t> want_d;
      std::size_t p = 0;
      for (std::size_t i = 0; i < n; ++i) {
        if (p < erase.size() && erase[p] == i) {
          ++p;
          continue;
        }
        want_a.push_back(a[i]);
        want_b.push_back(b[i]);
        want_c.push_back(c[i]);
        want_d.push_back(d[i]);
      }
      for (const simd::Backend backend : kAllBackends) {
        for (const bool fourth : {false, true}) {
          SCOPED_TRACE(std::string(simd::backend_name(backend)) +
                       " n=" + std::to_string(n) +
                       " erased=" + std::to_string(erase.size()) +
                       (fourth ? " with col_d" : ""));
          auto a2 = a, b2 = b, c2 = c;
          auto d2 = d;
          const std::size_t kept = simd::erase_positions(
              {a2.data(), b2.data(), c2.data()}, fourth ? d2.data() : nullptr,
              n, erase.data(), erase.size(), backend);
          ASSERT_EQ(kept, want_a.size());
          EXPECT_TRUE(std::equal(want_a.begin(), want_a.end(), a2.begin()));
          EXPECT_TRUE(std::equal(want_b.begin(), want_b.end(), b2.begin()));
          EXPECT_TRUE(std::equal(want_c.begin(), want_c.end(), c2.begin()));
          if (fourth)
            EXPECT_TRUE(std::equal(want_d.begin(), want_d.end(), d2.begin()));
          else
            EXPECT_EQ(d2, d);
        }
      }
    }
  }
}

/// The horizon test's value for population position `i`: never 0, so a
/// zeroed or unmoved entry shows.
std::uint32_t horizon_of(std::size_t i) {
  return static_cast<std::uint32_t>(i * 2654435761u) | 1u;
}

/// Checks that every element of `soa` holds its own tag's ID words and
/// horizon_of(its population position).
void expect_horizons_follow(const tags::TagSoA& soa,
                            const tags::TagPopulation& pop,
                            const std::string& step) {
  ASSERT_TRUE(soa.carries_horizons()) << step;
  for (std::size_t i = 0; i < soa.size(); ++i) {
    const tags::Tag* tag = soa.tag(i);
    const TagId& id = tag->id();
    ASSERT_EQ(soa.id_hi(i), (std::uint64_t{id.words[0]} << 32) | id.words[1])
        << step << " i=" << i;
    ASSERT_EQ(soa.id_lo(i), id.words[2]) << step << " i=" << i;
    ASSERT_EQ(soa.horizon(i),
              horizon_of(static_cast<std::size_t>(tag - pop.tags().data())))
        << step << " i=" << i;
  }
}

TEST(TagSoA, HorizonColumnFollowsItsTag) {
  Xoshiro256ss rng(20261021);
  for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                              std::size_t{9}, std::size_t{67},
                              std::size_t{1000}}) {
    const auto pop = tags::TagPopulation::uniform_random(n, rng);
    for (const simd::Backend backend :
         {simd::Backend::kScalar, simd::Backend::kAvx2,
          simd::Backend::kAvx512}) {
      SCOPED_TRACE(std::string(simd::backend_name(backend)) +
                   " n=" + std::to_string(n));
      tags::TagSoA soa;
      EXPECT_FALSE(soa.carries_horizons());
      soa.carry_horizons();
      for (std::size_t i = 0; i < n; ++i)
        soa.push_back(&pop[i], horizon_of(i));
      expect_horizons_follow(soa, pop, "push_back");

      // Grown elements are zeroed; shrinking keeps the rest in place.
      soa.resize(n + 3);
      for (std::size_t i = n; i < n + 3; ++i) EXPECT_EQ(soa.horizon(i), 0u);
      soa.resize(n);
      expect_horizons_follow(soa, pop, "resize");

      std::vector<char> done(soa.size());
      for (char& flag : done) flag = static_cast<char>(rng() % 3 == 0);
      soa.compact(done);
      expect_horizons_follow(soa, pop, "compact");

      // erase takes ascending positions, the last one included.
      std::vector<std::uint32_t> erase;
      for (std::uint32_t i = 0; i < soa.size(); ++i)
        if (rng() % 4 == 0 || i + 1 == soa.size()) erase.push_back(i);
      const std::size_t before_erase = soa.size();
      soa.erase(erase.data(), erase.size(), backend);
      EXPECT_EQ(soa.size(), before_erase - erase.size());
      expect_horizons_follow(soa, pop, "erase");

      const std::size_t f = 16;
      std::vector<std::uint32_t> counts(f, 0);
      for (std::size_t i = 0; i < soa.size(); ++i) {
        soa.set_slot(i, static_cast<std::uint32_t>(rng() % f));
        ++counts[soa.slot(i)];
      }
      const std::size_t before = soa.size();
      soa.compact_singletons(counts, backend);
      expect_horizons_follow(soa, pop, "compact_singletons");
      std::size_t singletons = 0;
      for (const std::uint32_t count : counts) singletons += count == 1;
      EXPECT_EQ(soa.size(), before - singletons);

      tags::TagSoA other;
      std::swap(soa, other);
      expect_horizons_follow(other, pop, "swap");
      EXPECT_FALSE(soa.carries_horizons());

      // gather replaces each element's tag and keeps its horizon: give
      // element i the tag at position n - 1 - i and that tag's horizon.
      tags::TagSoA placed;
      placed.carry_horizons();
      placed.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        placed.set_slot(i, static_cast<std::uint32_t>(n - 1 - i));
        placed.horizon_data()[i] = horizon_of(n - 1 - i);
      }
      placed.gather(pop.tags());
      expect_horizons_follow(placed, pop, "gather");
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(placed.tag(i), &pop[n - 1 - i]);
        EXPECT_EQ(placed.slot(i), 0u);
      }
    }
  }
}

TEST(TagSoA, CarryingHorizonsZeroesThoseOfHeldTags) {
  Xoshiro256ss rng(20261022);
  const auto pop = tags::TagPopulation::uniform_random(5, rng);
  tags::TagSoA soa;
  soa.push_back(&pop[0], 77);  // no column yet: the horizon is dropped
  soa.carry_horizons();
  soa.push_back(&pop[1], 9);
  ASSERT_EQ(soa.size(), 2u);
  EXPECT_EQ(soa.horizon(0), 0u);
  EXPECT_EQ(soa.horizon(1), 9u);
}

TEST(TagSoA, SplitCircleRejectsHorizons) {
  // EHPP's circles never churn; a churning deployment's TagSoA must not
  // reach the split, which would drop its horizons.
  Xoshiro256ss rng(20261023);
  const auto pop = tags::TagPopulation::uniform_random(64, rng);
  tags::TagSoA active;
  active.carry_horizons();
  for (const tags::Tag& tag : pop) active.push_back(&tag);
  tags::TagSoA joined;
  EXPECT_THROW(active.split_circle(rng(), 16, 4, joined, simd::best_backend()),
               ContractViolation);
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

/// Splits `pop` on every backend and checks the members and survivors
/// against the per-tag reference H(r, id) mod F < f, in the reference's
/// order.
void expect_split_matches_reference(const tags::TagPopulation& pop,
                                    std::uint64_t seed, std::uint64_t modulus,
                                    std::uint64_t threshold) {
  std::vector<const tags::Tag*> members;
  std::vector<const tags::Tag*> rest;
  for (const tags::Tag& tag : pop) {
    if (tag_index_mod(seed, tag.id(), modulus) < threshold)
      members.push_back(&tag);
    else
      rest.push_back(&tag);
  }
  for (const simd::Backend backend :
       {simd::Backend::kScalar, simd::Backend::kAvx2, simd::Backend::kAvx512}) {
    SCOPED_TRACE(std::string(simd::backend_name(backend)) +
                 " n=" + std::to_string(pop.size()) + " F=" +
                 std::to_string(modulus) + " f=" + std::to_string(threshold));
    tags::TagSoA active;
    for (const tags::Tag& tag : pop) active.push_back(&tag);
    tags::TagSoA joined;
    active.split_circle(seed, modulus, threshold, joined, backend);
    expect_holds(joined, members, "members");
    expect_holds(active, rest, "survivors");
  }
}

TEST(SimdKernels, SplitCircleMatchesPerTagReference) {
  // Lane tails, the AVX-512 kernel's block edges, a few blocks with a
  // ragged tail, TagSoA::split_circle's chunk edges and a population of
  // many chunks. Thresholds admit no tag, one residue, 221 in 10,000 (the
  // sparse regime, where most 8-tag groups hold no member), about half,
  // all but one residue and every tag. Moduli 1 and 2 are the edges of
  // the kernel's shift; 2^20 is EHPP's.
  const std::size_t block = simd::kSplitBlock;
  const std::size_t chunk = tags::TagSoA::kSplitChunk;
  std::vector<std::size_t> sizes(std::begin(kLaneTailSizes),
                                 std::end(kLaneTailSizes));
  sizes.insert(sizes.end(), {block - 1, block, block + 1, 3 * block + 5,
                             chunk - 1, chunk, chunk + 1, 10'000});
  Xoshiro256ss rng(20261017);
  for (const std::size_t n : sizes) {
    const auto pop = tags::TagPopulation::uniform_random(n, rng);
    for (const std::uint64_t modulus :
         {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{1} << 20}) {
      for (const std::uint64_t threshold :
           {std::uint64_t{0}, std::uint64_t{1}, modulus * 221 / 10'000,
            modulus / 2, modulus - 1, modulus})
        expect_split_matches_reference(pop, rng(), modulus, threshold);
    }
  }
}

/// Drains a fresh session of `n` tags round by round through `policy` and
/// returns the run, pinning the kernel backend the engine uses.
/// `keep_records` = true forces the per-poll dispatch (records need
/// per-poll output); false lets the engine take its clean-round fast path.
sim::RunResult drain(protocols::RoundPolicy& policy, std::size_t n,
                     std::uint64_t seed, simd::Backend backend,
                     bool keep_records) {
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
  engine.run_rounds(active, policy);
  EXPECT_EQ(session.metrics().polls, n);
  return session.finish("drain");
}

sim::RunResult drain_hpp(std::size_t n, std::uint64_t seed,
                         simd::Backend backend, bool keep_records) {
  protocols::HppRoundPolicy policy{protocols::HppRoundConfig{}};
  return drain(policy, n, seed, backend, keep_records);
}

sim::RunResult drain_tpp(std::size_t n, std::uint64_t seed,
                         int index_length_offset, bool keep_records) {
  protocols::Tpp::Config tpp;
  tpp.index_length_offset = index_length_offset;
  protocols::TppRoundPolicy policy(tpp);
  return drain(policy, n, seed, simd::best_backend(), keep_records);
}

/// Drains a fresh EHPP session circle by circle (as Ehpp::run does),
/// pinning the backend of every circle's split and of its rounds.
sim::RunResult drain_ehpp(std::size_t n, std::uint64_t seed,
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
  return session.finish("EHPP");
}

/// Everything the batched fold and the kernels could disturb: every
/// Metrics field (bit-exact) and the channel's slot statistics.
void expect_identical(const sim::RunResult& x, const sim::RunResult& y) {
  expect_same_metrics(x.metrics, y.metrics);
  EXPECT_EQ(x.channel.empty_slots, y.channel.empty_slots);
  EXPECT_EQ(x.channel.singleton_slots, y.channel.singleton_slots);
  EXPECT_EQ(x.channel.collision_slots, y.channel.collision_slots);
}

TEST(SimdEngine, BackendIsInvisibleInMetricsAtLaneTails) {
  for (const std::size_t n : kLaneTailSizes) {
    const auto scalar =
        drain_hpp(n, 31337 + n, simd::Backend::kScalar, false);
    for (const simd::Backend backend : kVectorBackends) {
      SCOPED_TRACE(std::string(simd::backend_name(backend)) +
                   " n=" + std::to_string(n));
      expect_identical(scalar, drain_hpp(n, 31337 + n, backend, false));
    }
  }
}

TEST(SimdEngine, EhppSplitBackendIsInvisibleInMetrics) {
  // Every circle's membership split runs on the engine's backend. At
  // n = 30,000 most 8-tag groups of a circle's split hold no member.
  for (const std::size_t n :
       {std::size_t{1000}, std::size_t{5000}, std::size_t{30'000}}) {
    const auto scalar = drain_ehpp(n, 4242 + n, simd::Backend::kScalar);
    EXPECT_GT(scalar.metrics.circles, 1u);
    for (const simd::Backend backend : kVectorBackends) {
      SCOPED_TRACE(std::string(simd::backend_name(backend)) +
                   " n=" + std::to_string(n));
      expect_identical(scalar, drain_ehpp(n, 4242 + n, backend));
    }
  }
}

TEST(SimdEngine, CleanFastPathIsInvisibleInMetrics) {
  // HPP's batched rounds fold n copies of h; everything the two paths
  // account — polls, bits, clock, phases, slots — must be bit-identical.
  for (const std::size_t n : kLaneTailSizes) {
    SCOPED_TRACE("HPP n=" + std::to_string(n));
    const auto slow = drain_hpp(n, 90210 + n, simd::best_backend(), true);
    const auto fast = drain_hpp(n, 90210 + n, simd::best_backend(), false);
    expect_identical(slow, fast);
  }
}

TEST(SimdEngine, TppCleanFastPathIsInvisibleInMetrics) {
  // TPP's batched rounds fold one tree-segment length per leaf, read off
  // the histogram. n = 1 is the h = 0 round (one zero-bit poll), n = 2 the
  // smallest real tree; the index-length offsets move the load factor off
  // the Eq. (15) optimum in both directions.
  std::vector<std::size_t> sizes(std::begin(kLaneTailSizes),
                                 std::end(kLaneTailSizes));
  sizes.push_back(2);
  for (const int offset : {0, -2, 2}) {
    for (const std::size_t n : sizes) {
      SCOPED_TRACE("TPP offset=" + std::to_string(offset) +
                   " n=" + std::to_string(n));
      const auto slow = drain_tpp(n, 60606 + n, offset, true);
      const auto fast = drain_tpp(n, 60606 + n, offset, false);
      expect_identical(slow, fast);
      if (n == 1 && offset <= 0) {
        EXPECT_EQ(fast.metrics.vector_bits, 0u);  // h = 0
      }
    }
  }
}

TEST(SimdEngine, CleanTppRoundSkipsPerPollBookkeeping) {
  // The fast path neither fills the occupant/done tables nor parks polls,
  // and it records the same leaves the per-poll tree dispatch polls.
  Xoshiro256ss rng(777);
  const auto pop = tags::TagPopulation::uniform_random(4096, rng);
  sim::SessionConfig config;
  config.keep_records = false;
  sim::Session session(pop, config);
  ASSERT_TRUE(session.clean_poll_fast_path());
  tags::TagSoA active = protocols::make_devices(session);
  fault::RecoveryCoordinator recovery(config.recovery);
  protocols::RoundEngine engine(session, recovery);
  protocols::TppRoundPolicy policy(protocols::Tpp::Config{});
  engine.run_rounds(active, policy);
  EXPECT_EQ(session.metrics().polls, pop.size());
  EXPECT_TRUE(engine.occupant().empty());
  EXPECT_TRUE(engine.done().empty());
  EXPECT_TRUE(engine.pending().empty());
}

TEST(SimdEngine, TppTreeCrossCheckKeepsPerPollDispatch) {
  // A run that asks for the per-round trie cross-check opts out of the
  // fast path, and its output is still the fast path's.
  protocols::Tpp::Config checked;
  checked.cross_check_tree = true;
  EXPECT_FALSE(protocols::TppRoundPolicy(checked).batchable_dispatch());
  EXPECT_TRUE(
      protocols::TppRoundPolicy(protocols::Tpp::Config{}).batchable_dispatch());
  protocols::TppRoundPolicy policy(checked);
  const auto checked_run =
      drain(policy, 3000, 5150, simd::best_backend(), false);
  expect_identical(checked_run, drain_tpp(3000, 5150, 0, false));
}

}  // namespace
}  // namespace rfid
