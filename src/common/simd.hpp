// Portable batched kernels for the hash-polling hot path.
//
// The per-round work every protocol in the family shares — computing
// H(r, id) for all awake tags and sifting the bucket histogram for
// singletons — and EHPP's per-circle membership split are data-parallel
// over the structure-of-arrays population view (tags::TagSoA). This
// wrapper exposes that work as flat-array kernels:
//   hash_indices          — the h-bit index pick of every awake tag;
//   hash_words            — H(r, id) at full width under several keys;
//   count_singletons      — singleton buckets of the round's histogram;
//   compact_nonsingletons — the clean-round compaction;
//   split_members         — EHPP's circle split (H(r, id) mod F < f);
//   due_positions         — the churn scan's due tags;
//   erase_positions       — the churn scan's order-preserving erase.
// The three backends are a scalar reference, AVX-512 (8 × 64-bit lanes)
// and AVX2 (4 × 64-bit lanes). Only hash_indices and count_singletons
// have an AVX2 form; every other kernel runs the scalar reference there,
// the compress-store kernels because AVX2 has no compress store. The
// vector backends are compiled in on x86-64 at configure time via the
// RFID_SIMD CMake option; the widest one the *running* CPU supports is
// picked at startup (best_backend), so one binary is safe on any x86-64
// machine. Every other architecture runs the scalar reference.
// The implementation lives in simd.cpp — the only translation unit
// containing vector intrinsics (each kernel carries its own `target`
// attribute) — so the rest of the build is bit-for-bit independent of
// the option.
//
// Lane→tag determinism rule: out[i] depends ONLY on (seed, id_hi[i],
// id_lo[i], h) — or, for the circle split, (seed, id_hi[i], id_lo[i], F,
// f), and for the churn kernels on element i's own horizon or position
// — never on the lane position, the vector width, or a neighbouring
// element. Every backend evaluates the exact scalar chain
// rfid::tag_hash_words lane-by-lane, so scalar and SIMD builds (and any
// future wider backend) produce byte-identical simulation results. The
// scalar/SIMD cross-check in CI and tests/test_simd.cpp enforce this.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rfid::simd {

enum class Backend : std::uint8_t { kScalar, kAvx2, kAvx512 };

[[nodiscard]] constexpr const char* backend_name(Backend backend) noexcept {
  switch (backend) {
    case Backend::kAvx512:
      return "avx512";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kScalar:
      return "scalar";
  }
  return "scalar";
}

/// The widest backend this build compiled in AND the running CPU supports
/// (kScalar when RFID_SIMD is OFF or neither holds). Constant for the
/// process lifetime, so callers may cache it.
[[nodiscard]] Backend best_backend() noexcept;

/// Batched H(r, id) index pick: out[i] = tag_hash_words(seed, id_hi[i],
/// id_lo[i]) >> (64 - h) for all i < n and h <= 32 (h == 0 yields index
/// 0), exactly the scalar tag_index_pow2 per element. Requesting a
/// backend that is not compiled in (or not supported by the running CPU)
/// falls back to the scalar reference — same results by the lane→tag
/// rule above, only slower.
void hash_indices(std::uint64_t seed, const std::uint64_t* id_hi,
                  const std::uint64_t* id_lo, std::uint32_t* out,
                  std::size_t n, unsigned h, Backend backend);

/// Batched H(r, id) at full 64-bit width under `key_count` keys, one row
/// of n hashes per key: out[k * n + i] = tag_hash_words(keys[k], id_hi[i],
/// id_lo[i]) for all k < key_count and i < n. AVX-512 multiplies each
/// 8-element group's id_lo by the golden ratio once for every key and
/// hashes a ragged last group under a lane mask; every other backend runs
/// the scalar reference.
void hash_words(const std::uint64_t* keys, std::size_t key_count,
                const std::uint64_t* id_hi, const std::uint64_t* id_lo,
                std::uint64_t* out, std::size_t n, Backend backend);

/// Number of buckets with exactly one occupant in counts[0..f): the
/// singleton polls a clean round will issue.
[[nodiscard]] std::size_t count_singletons(const std::uint32_t* counts,
                                           std::size_t f, Backend backend);

/// In-place stable compaction of three parallel 64-bit columns, and of a
/// fourth 32-bit one unless col_d is null: element i survives iff
/// counts[slot[i]] != 1 (its bucket was not a singleton). Survivors keep
/// their relative order; returns the surviving count. The keep decision
/// depends only on counts[slot[i]], so every backend keeps exactly the
/// same elements in the same order (AVX-512 uses masked compress stores;
/// backends without compress fall back to the scalar reference). The
/// columns are opaque payloads — TagSoA passes its tag column (Tag
/// addresses stored as integers) and, when it carries one, its churn
/// horizon column, which the kernels only ever copy, never interpret.
std::size_t compact_nonsingletons(const std::uint32_t* counts,
                                  const std::uint32_t* slot,
                                  std::uint64_t* col_a, std::uint64_t* col_b,
                                  std::uint64_t* col_c, std::size_t n,
                                  Backend backend,
                                  std::uint32_t* col_d = nullptr);

/// Three parallel 64-bit columns of one element range: an opaque payload
/// the kernels only copy (TagSoA's tag column) and the two ID words
/// H(r, id) reads.
struct IdColumns final {
  std::uint64_t* payload;
  std::uint64_t* id_hi;
  std::uint64_t* id_lo;
};

/// Elements the AVX-512 circle split hashes before it moves any: one
/// member mask per 8-element group, kept on the stack.
inline constexpr std::size_t kSplitBlock = 256;

/// EHPP's circle split: element i of `in` joins the circle iff
/// (tag_hash_words(seed, id_hi[i], id_lo[i]) & (modulus - 1)) < threshold,
/// which is H(r, id) mod F < f for the power-of-two modulus F (a contract
/// violation otherwise). Members are copied, in order, to `join` (room for
/// n); non-members are copied, in order, to `keep`, which may alias `in`
/// as long as it does not run ahead of it, so the split can compact in
/// place. Returns the member count. Membership depends only on (seed,
/// id_hi[i], id_lo[i], modulus, threshold), so every backend splits
/// identically: AVX-512 masks a block of kSplitBlock elements, then moves
/// it with masked compress stores; every other backend runs the scalar
/// reference.
std::size_t split_members(std::uint64_t seed, std::uint64_t modulus,
                          std::uint64_t threshold, IdColumns in, IdColumns keep,
                          IdColumns join, std::size_t n, Backend backend);

/// The positions i < n with horizon[i] <= tick, ascending, into `out`
/// (room for n); returns their count. Requires n <= 2^32. AVX-512 compares
/// 16 horizons per group and compress-stores the positions of the due
/// ones.
std::size_t due_positions(const std::uint32_t* horizon, std::size_t n,
                          std::uint32_t tick, std::uint32_t* out,
                          Backend backend);

/// In-place, order-preserving erase of the elements at `positions` (count
/// of them, strictly ascending, each below n) from the three 64-bit
/// columns and, unless col_d is null, a fourth 32-bit one; returns
/// n - count. The scalar reference moves each run between two erased
/// elements with one copy per column. AVX-512 starts at the 8-element
/// group of the first erased element, builds each group's erase mask from
/// the positions that fall in it and compress-stores the survivors.
std::size_t erase_positions(IdColumns columns, std::uint32_t* col_d,
                            std::size_t n, const std::uint32_t* positions,
                            std::size_t count, Backend backend);

}  // namespace rfid::simd
