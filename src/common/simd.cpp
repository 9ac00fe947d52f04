// Backend implementations for common/simd.hpp. This is the only TU with
// vector intrinsics; each x86 kernel carries its own `target` attribute,
// so the TU needs no ISA compile flags, the scalar reference stays
// baseline-ISA, and one binary runs safely on any CPU of its architecture
// (best_backend() never hands out a backend the running CPU lacks).
// RFID_SIMD=ON/OFF builds differ in exactly this one object file.
#include "common/simd.hpp"

#include "common/error.hpp"
#include "common/hash.hpp"

#if defined(RFID_SIMD_ENABLED) && RFID_SIMD_ENABLED
#if defined(__x86_64__) || defined(__amd64__)
#include <immintrin.h>
#define RFID_SIMD_X86 1
#endif
#endif

#include <algorithm>
#include <array>
#include <bit>

namespace rfid::simd {
namespace {

void hash_indices_scalar(std::uint64_t seed, const std::uint64_t* id_hi,
                         const std::uint64_t* id_lo, std::uint32_t* out,
                         std::size_t n, unsigned h) noexcept {
  if (h == 0) {
    for (std::size_t i = 0; i < n; ++i) out[i] = 0;
    return;
  }
  const unsigned shift = 64u - h;
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = static_cast<std::uint32_t>(
        tag_hash_words(seed, id_hi[i], id_lo[i]) >> shift);
  }
}

std::size_t count_singletons_scalar(const std::uint32_t* counts,
                                    std::size_t f) noexcept {
  std::size_t total = 0;
  for (std::size_t i = 0; i < f; ++i) total += counts[i] == 1 ? 1u : 0u;
  return total;
}

std::size_t compact_nonsingletons_scalar(const std::uint32_t* counts,
                                         const std::uint32_t* slot,
                                         std::uint64_t* col_a,
                                         std::uint64_t* col_b,
                                         std::uint64_t* col_c,
                                         std::uint32_t* col_d,
                                         std::size_t start, std::size_t n,
                                         std::size_t write) noexcept {
  // Branchless stable compaction: always copy element i to the write
  // cursor (write <= i makes that a self-copy at worst), advance the
  // cursor only for survivors. Survival is close to a coin flip per
  // element, so a conditional copy would eat a branch mispredict each;
  // the col_d test reads the same pointer every time and always predicts.
  // Doubles as the tail loop of the vector kernels, hence the explicit
  // start/write cursors.
  for (std::size_t i = start; i < n; ++i) {
    const std::size_t keep = counts[slot[i]] != 1 ? 1u : 0u;
    col_a[write] = col_a[i];
    col_b[write] = col_b[i];
    col_c[write] = col_c[i];
    if (col_d != nullptr) col_d[write] = col_d[i];
    write += keep;
  }
  return write;
}

std::size_t split_members_scalar(std::uint64_t seed, std::uint64_t mask,
                                 std::uint64_t threshold, IdColumns in,
                                 IdColumns keep, IdColumns join,
                                 std::size_t n) noexcept {
  // Members are the rare side (f / F = n* / n_remaining) in every circle
  // but the last few, so the branch predicts well. Element i is read in
  // full before keep[kept] is written: with keep aliasing in, kept <= i
  // makes that store a self-copy at worst.
  std::size_t kept = 0;
  std::size_t joined = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t payload = in.payload[i];
    const std::uint64_t hi = in.id_hi[i];
    const std::uint64_t lo = in.id_lo[i];
    if ((tag_hash_words(seed, hi, lo) & mask) < threshold) {
      join.payload[joined] = payload;
      join.id_hi[joined] = hi;
      join.id_lo[joined] = lo;
      ++joined;
    } else {
      keep.payload[kept] = payload;
      keep.id_hi[kept] = hi;
      keep.id_lo[kept] = lo;
      ++kept;
    }
  }
  return joined;
}

void hash_words_scalar(const std::uint64_t* keys, std::size_t key_count,
                       const std::uint64_t* id_hi, const std::uint64_t* id_lo,
                       std::uint64_t* out, std::size_t n) noexcept {
  for (std::size_t k = 0; k < key_count; ++k)
    for (std::size_t i = 0; i < n; ++i)
      out[k * n + i] = tag_hash_words(keys[k], id_hi[i], id_lo[i]);
}

std::size_t due_positions_scalar(const std::uint32_t* horizon, std::size_t n,
                                 std::uint32_t tick,
                                 std::uint32_t* out) noexcept {
  // Branch-free: every position is written at the cursor, which only a due
  // one advances. The cursor never passes i, so out needs room for n.
  std::size_t due = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out[due] = static_cast<std::uint32_t>(i);
    due += horizon[i] <= tick ? 1u : 0u;
  }
  return due;
}

std::size_t erase_positions_scalar(IdColumns columns, std::uint32_t* col_d,
                                   std::size_t n,
                                   const std::uint32_t* positions,
                                   std::size_t count) noexcept {
  // The run after the p-th erased element moves down by p + 1, one copy
  // per column; its destination starts before its source, which a forward
  // copy allows.
  if (count == 0) return n;
  std::size_t write = positions[0];
  for (std::size_t p = 0; p < count; ++p) {
    const std::size_t begin = positions[p] + std::size_t{1};
    const std::size_t end = p + 1 < count ? positions[p + 1] : n;
    std::copy(columns.payload + begin, columns.payload + end,
              columns.payload + write);
    std::copy(columns.id_hi + begin, columns.id_hi + end,
              columns.id_hi + write);
    std::copy(columns.id_lo + begin, columns.id_lo + end,
              columns.id_lo + write);
    if (col_d != nullptr) std::copy(col_d + begin, col_d + end, col_d + write);
    write += end - begin;
  }
  return write;
}

#if defined(RFID_SIMD_X86)

// GCC 12's avx512 intrinsic headers expand the no-mask conversion forms
// through an undefined-value placeholder that -Wmaybe-uninitialized flags
// (a known header false positive); scoped suppression keeps the
// warnings-as-errors CI lanes clean without loosening the project flags.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

// --- AVX2 (4 × 64-bit lanes) ----------------------------------------------

// AVX2 has no 64×64→64 multiply; compose it from 32×32→64 partials:
// a*b = lo(a)*lo(b) + ((hi(a)*lo(b) + lo(a)*hi(b)) << 32).
__attribute__((target("avx2"))) inline __m256i mul64(__m256i a,
                                                     __m256i b) noexcept {
  const __m256i a_hi = _mm256_srli_epi64(a, 32);
  const __m256i b_hi = _mm256_srli_epi64(b, 32);
  const __m256i lolo = _mm256_mul_epu32(a, b);
  const __m256i cross = _mm256_add_epi64(_mm256_mul_epu32(a_hi, b),
                                         _mm256_mul_epu32(a, b_hi));
  return _mm256_add_epi64(lolo, _mm256_slli_epi64(cross, 32));
}

// Four lanes of rfid::mix64 (murmur3 fmix64), op-for-op.
__attribute__((target("avx2"))) inline __m256i mix64x4(__m256i x) noexcept {
  const __m256i m1 =
      _mm256_set1_epi64x(static_cast<long long>(0xff51afd7ed558ccdULL));
  const __m256i m2 =
      _mm256_set1_epi64x(static_cast<long long>(0xc4ceb9fe1a85ec53ULL));
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = mul64(x, m1);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  x = mul64(x, m2);
  x = _mm256_xor_si256(x, _mm256_srli_epi64(x, 33));
  return x;
}

__attribute__((target("avx2"))) void hash_indices_avx2(
    std::uint64_t seed, const std::uint64_t* id_hi, const std::uint64_t* id_lo,
    std::uint32_t* out, std::size_t n, unsigned h) noexcept {
  if (h == 0) {
    for (std::size_t i = 0; i < n; ++i) out[i] = 0;
    return;
  }
  const __m256i seeded = _mm256_set1_epi64x(
      static_cast<long long>(mix64(seed ^ 0x2545f4914f6cdd1dULL)));
  const __m256i golden =
      _mm256_set1_epi64x(static_cast<long long>(0x9e3779b97f4a7c15ULL));
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(64u - h));
  // Indices are < 2^32, so each 64-bit lane's low dword carries the whole
  // value; pack dwords 0,2,4,6 into the low 128 bits and store four u32.
  const __m256i pack = _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(id_hi + i));
    const __m256i lo =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(id_lo + i));
    __m256i acc = mix64x4(_mm256_xor_si256(seeded, hi));
    acc = mix64x4(_mm256_xor_si256(acc, mul64(lo, golden)));
    const __m256i idx = _mm256_srl_epi64(acc, shift);
    const __m256i packed = _mm256_permutevar8x32_epi32(idx, pack);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + i),
                     _mm256_castsi256_si128(packed));
  }
  hash_indices_scalar(seed, id_hi + i, id_lo + i, out + i, n - i, h);
}

__attribute__((target("avx2"))) std::size_t count_singletons_avx2(
    const std::uint32_t* counts, std::size_t f) noexcept {
  const __m256i one = _mm256_set1_epi32(1);
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 8 <= f; i += 8) {
    const __m256i c =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(counts + i));
    const int mask =
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(c, one)));
    total += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(mask)));
  }
  return total + count_singletons_scalar(counts + i, f - i);
}

// --- AVX-512 (8 × 64-bit lanes) -------------------------------------------
//
// AVX-512DQ brings the native 64×64→64 multiply (vpmullq) the AVX2 kernel
// has to emulate with three 32-bit partials, so each fmix64 round is one
// multiply per step across eight lanes — the widest and cheapest path for
// the round hash.

// Eight lanes of rfid::mix64 (murmur3 fmix64), op-for-op.
__attribute__((target("avx512f,avx512dq"))) inline __m512i mix64x8(
    __m512i x) noexcept {
  const __m512i m1 =
      _mm512_set1_epi64(static_cast<long long>(0xff51afd7ed558ccdULL));
  const __m512i m2 =
      _mm512_set1_epi64(static_cast<long long>(0xc4ceb9fe1a85ec53ULL));
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
  x = _mm512_mullo_epi64(x, m1);
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
  x = _mm512_mullo_epi64(x, m2);
  x = _mm512_xor_si512(x, _mm512_srli_epi64(x, 33));
  return x;
}

__attribute__((target("avx512f,avx512dq"))) void hash_indices_avx512(
    std::uint64_t seed, const std::uint64_t* id_hi, const std::uint64_t* id_lo,
    std::uint32_t* out, std::size_t n, unsigned h) noexcept {
  if (h == 0) {
    for (std::size_t i = 0; i < n; ++i) out[i] = 0;
    return;
  }
  const __m512i seeded = _mm512_set1_epi64(
      static_cast<long long>(mix64(seed ^ 0x2545f4914f6cdd1dULL)));
  const __m512i golden =
      _mm512_set1_epi64(static_cast<long long>(0x9e3779b97f4a7c15ULL));
  const __m128i shift = _mm_cvtsi32_si128(static_cast<int>(64u - h));
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i hi = _mm512_loadu_si512(id_hi + i);
    const __m512i lo = _mm512_loadu_si512(id_lo + i);
    __m512i acc = mix64x8(_mm512_xor_si512(seeded, hi));
    acc = mix64x8(
        _mm512_xor_si512(acc, _mm512_mullo_epi64(lo, golden)));
    const __m512i idx = _mm512_srl_epi64(acc, shift);
    // Indices are < 2^32: the truncating 64→32 narrow keeps every value.
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm512_cvtepi64_epi32(idx));
  }
  hash_indices_scalar(seed, id_hi + i, id_lo + i, out + i, n - i, h);
}

__attribute__((target("avx512f,avx512dq"))) std::size_t
compact_nonsingletons_avx512(const std::uint32_t* counts,
                             const std::uint32_t* slot, std::uint64_t* col_a,
                             std::uint64_t* col_b, std::uint64_t* col_c,
                             std::uint32_t* col_d, std::size_t n) noexcept {
  // Gather each element's bucket count through its slot, build the keep
  // mask, and compress-store the survivors of every column. The compress
  // store writes exactly popcount(keep) elements at the write cursor, and
  // write + popcount <= i + 8 always, so the stores never touch elements
  // the next iteration still has to load. The 32-bit column goes through
  // the low half of a 16-lane compress, which needs no AVX-512VL.
  const __m256i one = _mm256_set1_epi32(1);
  std::size_t write = 0;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i s =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(slot + i));
    const __m256i cnt =
        _mm256_i32gather_epi32(reinterpret_cast<const int*>(counts), s, 4);
    const unsigned drop = static_cast<unsigned>(
        _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_cmpeq_epi32(cnt, one))));
    const __mmask8 keep = static_cast<__mmask8>(~drop & 0xFFu);
    const __m512i va = _mm512_loadu_si512(col_a + i);
    const __m512i vb = _mm512_loadu_si512(col_b + i);
    const __m512i vc = _mm512_loadu_si512(col_c + i);
    _mm512_mask_compressstoreu_epi64(col_a + write, keep, va);
    _mm512_mask_compressstoreu_epi64(col_b + write, keep, vb);
    _mm512_mask_compressstoreu_epi64(col_c + write, keep, vc);
    if (col_d != nullptr) {
      const __m512i vd = _mm512_zextsi256_si512(
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(col_d + i)));
      _mm512_mask_compressstoreu_epi32(col_d + write, keep, vd);
    }
    write += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(keep)));
  }
  // GCC may call the scalar tail out of line without clearing the upper
  // vector state first, and a dirty upper state slows every later legacy
  // SSE instruction of the caller; clear it here.
  _mm256_zeroupper();
  return compact_nonsingletons_scalar(counts, slot, col_a, col_b, col_c,
                                      col_d, i, n, write);
}

/// `columns` advanced by `offset` elements.
IdColumns advance(IdColumns columns, std::size_t offset) noexcept {
  return {columns.payload + offset, columns.id_hi + offset,
          columns.id_lo + offset};
}

__attribute__((target("avx512f,avx512dq"))) std::size_t
split_members_avx512(std::uint64_t seed, std::uint64_t mask,
                     std::uint64_t threshold, IdColumns in, IdColumns keep,
                     IdColumns join, std::size_t n) noexcept {
  // Two passes per block. Pass 1 hashes each 8-element group as
  // hash_indices_avx512 does and keeps only its member mask: no branch and
  // no store but the mask. It takes the low log2(F) bits by shifting up
  // and back down (a shift by 64 yields 0, exact for F = 1); GCC folds an
  // `& (F - 1)` into a vpternlogd that halved the loop's speed. Pass 2
  // reloads each group, compress-stores the non-members at the keep
  // cursor and, if there are any, the members at the join cursor; its
  // branch reads a settled mask, so a mispredict discards no hash work.
  // keep + kept never passes in + i, and a compress store writes exactly
  // popcount(mask) elements, so an in-place split never overwrites an
  // element a later group still has to load.
  const __m512i seeded = _mm512_set1_epi64(
      static_cast<long long>(mix64(seed ^ 0x2545f4914f6cdd1dULL)));
  const __m512i golden =
      _mm512_set1_epi64(static_cast<long long>(0x9e3779b97f4a7c15ULL));
  const __m128i drop = _mm_cvtsi32_si128(std::countl_zero(mask));
  const __m512i limit = _mm512_set1_epi64(static_cast<long long>(threshold));
  std::array<__mmask8, kSplitBlock / 8> member{};
  const std::size_t vector_n = n - n % 8;
  std::size_t kept = 0;
  std::size_t joined = 0;
  for (std::size_t block = 0; block < vector_n; block += kSplitBlock) {
    const std::size_t groups = std::min(kSplitBlock, vector_n - block) / 8;
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t i = block + 8 * g;
      const __m512i hi = _mm512_loadu_si512(in.id_hi + i);
      const __m512i lo = _mm512_loadu_si512(in.id_lo + i);
      __m512i acc = mix64x8(_mm512_xor_si512(seeded, hi));
      acc = mix64x8(_mm512_xor_si512(acc, _mm512_mullo_epi64(lo, golden)));
      const __m512i low = _mm512_srl_epi64(_mm512_sll_epi64(acc, drop), drop);
      member[g] = _mm512_cmplt_epu64_mask(low, limit);
    }
    for (std::size_t g = 0; g < groups; ++g) {
      const std::size_t i = block + 8 * g;
      const __mmask8 stay = static_cast<__mmask8>(~member[g]);
      const __m512i payload = _mm512_loadu_si512(in.payload + i);
      const __m512i hi = _mm512_loadu_si512(in.id_hi + i);
      const __m512i lo = _mm512_loadu_si512(in.id_lo + i);
      _mm512_mask_compressstoreu_epi64(keep.payload + kept, stay, payload);
      _mm512_mask_compressstoreu_epi64(keep.id_hi + kept, stay, hi);
      _mm512_mask_compressstoreu_epi64(keep.id_lo + kept, stay, lo);
      if (member[g] != 0) {
        _mm512_mask_compressstoreu_epi64(join.payload + joined, member[g],
                                         payload);
        _mm512_mask_compressstoreu_epi64(join.id_hi + joined, member[g], hi);
        _mm512_mask_compressstoreu_epi64(join.id_lo + joined, member[g], lo);
      }
      kept += static_cast<std::size_t>(
          std::popcount(static_cast<unsigned>(stay)));
      joined += static_cast<std::size_t>(
          std::popcount(static_cast<unsigned>(member[g])));
    }
  }
  return joined + split_members_scalar(seed, mask, threshold,
                                       advance(in, vector_n),
                                       advance(keep, kept),
                                       advance(join, joined), n - vector_n);
}

__attribute__((target("avx512f,avx512dq"))) std::size_t
count_singletons_avx512(const std::uint32_t* counts, std::size_t f) noexcept {
  const __m512i one = _mm512_set1_epi32(1);
  std::size_t total = 0;
  std::size_t i = 0;
  for (; i + 16 <= f; i += 16) {
    const __mmask16 mask =
        _mm512_cmpeq_epi32_mask(_mm512_loadu_si512(counts + i), one);
    total += static_cast<std::size_t>(
        std::popcount(static_cast<unsigned>(mask)));
  }
  return total + count_singletons_scalar(counts + i, f - i);
}

__attribute__((target("avx512f,avx512dq"))) void hash_words_avx512(
    const std::uint64_t* keys, std::size_t key_count,
    const std::uint64_t* id_hi, const std::uint64_t* id_lo, std::uint64_t* out,
    std::size_t n) noexcept {
  // Each group's lo * golden serves every key. A ragged last group loads
  // zeros into its idle lanes and stores only its live ones.
  const __m512i golden =
      _mm512_set1_epi64(static_cast<long long>(0x9e3779b97f4a7c15ULL));
  for (std::size_t i = 0; i < n; i += 8) {
    const __mmask8 live =
        static_cast<__mmask8>(0xFFu >> (8 - std::min<std::size_t>(8, n - i)));
    const __m512i hi = _mm512_maskz_loadu_epi64(live, id_hi + i);
    const __m512i lo =
        _mm512_mullo_epi64(_mm512_maskz_loadu_epi64(live, id_lo + i), golden);
    for (std::size_t k = 0; k < key_count; ++k) {
      const __m512i seeded = _mm512_set1_epi64(
          static_cast<long long>(mix64(keys[k] ^ 0x2545f4914f6cdd1dULL)));
      __m512i acc = mix64x8(_mm512_xor_si512(seeded, hi));
      acc = mix64x8(_mm512_xor_si512(acc, lo));
      _mm512_mask_storeu_epi64(out + k * n + i, live, acc);
    }
  }
}

__attribute__((target("avx512f"))) std::size_t due_positions_avx512(
    const std::uint32_t* horizon, std::size_t n, std::uint32_t tick,
    std::uint32_t* out) noexcept {
  // A ragged last group compares only its live lanes. The compress store
  // writes exactly popcount(due) positions at the cursor.
  const __m512i limit = _mm512_set1_epi32(static_cast<int>(tick));
  const __m512i step = _mm512_set1_epi32(16);
  __m512i position =
      _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
  std::size_t due = 0;
  for (std::size_t i = 0; i < n; i += 16) {
    const __mmask16 live = static_cast<__mmask16>(
        0xFFFFu >> (16 - std::min<std::size_t>(16, n - i)));
    const __mmask16 hit = _mm512_mask_cmple_epu32_mask(
        live, _mm512_maskz_loadu_epi32(live, horizon + i), limit);
    _mm512_mask_compressstoreu_epi32(out + due, hit, position);
    due += static_cast<std::size_t>(std::popcount(static_cast<unsigned>(hit)));
    position = _mm512_add_epi32(position, step);
  }
  return due;
}

__attribute__((target("avx512f"))) std::size_t erase_positions_avx512(
    IdColumns columns, std::uint32_t* col_d, std::size_t n,
    const std::uint32_t* positions, std::size_t count) noexcept {
  // Elements before the first erased one's group stay where they are. From
  // there on, each group's survivors are compress-stored at the write
  // cursor; a ragged last group loads and keeps only its live lanes. The
  // cursor never passes i, and a store writes exactly popcount(keep) <= 8
  // elements, so it never touches one a later group still has to load.
  // The 32-bit column goes through the low half of a 16-lane compress.
  if (count == 0) return n;
  std::size_t write = positions[0] & ~std::size_t{7};
  std::size_t p = 0;
  for (std::size_t i = write; i < n; i += 8) {
    const __mmask8 live =
        static_cast<__mmask8>(0xFFu >> (8 - std::min<std::size_t>(8, n - i)));
    unsigned erased = 0;
    for (; p < count && positions[p] < i + 8; ++p)
      erased |= 1u << (positions[p] - i);
    const __mmask8 keep = static_cast<__mmask8>(live & ~erased);
    const __m512i a = _mm512_maskz_loadu_epi64(live, columns.payload + i);
    const __m512i b = _mm512_maskz_loadu_epi64(live, columns.id_hi + i);
    const __m512i c = _mm512_maskz_loadu_epi64(live, columns.id_lo + i);
    _mm512_mask_compressstoreu_epi64(columns.payload + write, keep, a);
    _mm512_mask_compressstoreu_epi64(columns.id_hi + write, keep, b);
    _mm512_mask_compressstoreu_epi64(columns.id_lo + write, keep, c);
    if (col_d != nullptr) {
      const __m512i d = _mm512_maskz_loadu_epi32(live, col_d + i);
      _mm512_mask_compressstoreu_epi32(col_d + write, keep, d);
    }
    write += static_cast<std::size_t>(std::popcount(keep));
  }
  return write;
}

#pragma GCC diagnostic pop

Backend detect_backend() noexcept {
  if (__builtin_cpu_supports("avx512f") &&
      __builtin_cpu_supports("avx512dq"))
    return Backend::kAvx512;
  if (__builtin_cpu_supports("avx2")) return Backend::kAvx2;
  return Backend::kScalar;
}

#endif  // RFID_SIMD_X86

}  // namespace

Backend best_backend() noexcept {
#if defined(RFID_SIMD_X86)
  static const Backend detected = detect_backend();
  return detected;
#else
  return Backend::kScalar;
#endif
}

void hash_indices(std::uint64_t seed, const std::uint64_t* id_hi,
                  const std::uint64_t* id_lo, std::uint32_t* out,
                  std::size_t n, unsigned h, Backend backend) {
  // A requested backend is honoured only when compiled in AND supported by
  // the running CPU (best_backend gates the latter); anything else falls
  // back to the scalar reference, which is byte-identical by the lane→tag
  // rule.
#if defined(RFID_SIMD_X86)
  if (backend == Backend::kAvx512 && best_backend() == Backend::kAvx512) {
    hash_indices_avx512(seed, id_hi, id_lo, out, n, h);
    return;
  }
  if (backend == Backend::kAvx2 && best_backend() != Backend::kScalar) {
    hash_indices_avx2(seed, id_hi, id_lo, out, n, h);
    return;
  }
#endif
  (void)backend;
  hash_indices_scalar(seed, id_hi, id_lo, out, n, h);
}

void hash_words(const std::uint64_t* keys, std::size_t key_count,
                const std::uint64_t* id_hi, const std::uint64_t* id_lo,
                std::uint64_t* out, std::size_t n, Backend backend) {
#if defined(RFID_SIMD_X86)
  if (backend == Backend::kAvx512 && best_backend() == Backend::kAvx512) {
    hash_words_avx512(keys, key_count, id_hi, id_lo, out, n);
    return;
  }
#endif
  (void)backend;
  hash_words_scalar(keys, key_count, id_hi, id_lo, out, n);
}

std::size_t count_singletons(const std::uint32_t* counts, std::size_t f,
                             Backend backend) {
#if defined(RFID_SIMD_X86)
  if (backend == Backend::kAvx512 && best_backend() == Backend::kAvx512)
    return count_singletons_avx512(counts, f);
  if (backend == Backend::kAvx2 && best_backend() != Backend::kScalar)
    return count_singletons_avx2(counts, f);
#endif
  (void)backend;
  return count_singletons_scalar(counts, f);
}

std::size_t compact_nonsingletons(const std::uint32_t* counts,
                                  const std::uint32_t* slot,
                                  std::uint64_t* col_a, std::uint64_t* col_b,
                                  std::uint64_t* col_c, std::size_t n,
                                  Backend backend, std::uint32_t* col_d) {
  // Only AVX-512 has the masked compress store; every other backend runs
  // the scalar reference, which keeps exactly the same elements in the
  // same order.
#if defined(RFID_SIMD_X86)
  if (backend == Backend::kAvx512 && best_backend() == Backend::kAvx512)
    return compact_nonsingletons_avx512(counts, slot, col_a, col_b, col_c,
                                        col_d, n);
#endif
  (void)backend;
  return compact_nonsingletons_scalar(counts, slot, col_a, col_b, col_c,
                                      col_d, 0, n, 0);
}

std::size_t split_members(std::uint64_t seed, std::uint64_t modulus,
                          std::uint64_t threshold, IdColumns in, IdColumns keep,
                          IdColumns join, std::size_t n, Backend backend) {
  // Only AVX-512 has the masked compress store the split needs; AVX2 runs
  // the scalar reference, which splits exactly the same way. Its low-bit
  // shift equals the reference's mask only for a power-of-two modulus.
  RFID_EXPECTS(std::has_single_bit(modulus));
  const std::uint64_t mask = modulus - 1;
#if defined(RFID_SIMD_X86)
  if (backend == Backend::kAvx512 && best_backend() == Backend::kAvx512)
    return split_members_avx512(seed, mask, threshold, in, keep, join, n);
#endif
  (void)backend;
  return split_members_scalar(seed, mask, threshold, in, keep, join, n);
}

std::size_t due_positions(const std::uint32_t* horizon, std::size_t n,
                          std::uint32_t tick, std::uint32_t* out,
                          Backend backend) {
#if defined(RFID_SIMD_X86)
  if (backend == Backend::kAvx512 && best_backend() == Backend::kAvx512)
    return due_positions_avx512(horizon, n, tick, out);
#endif
  (void)backend;
  return due_positions_scalar(horizon, n, tick, out);
}

std::size_t erase_positions(IdColumns columns, std::uint32_t* col_d,
                            std::size_t n, const std::uint32_t* positions,
                            std::size_t count, Backend backend) {
#if defined(RFID_SIMD_X86)
  if (backend == Backend::kAvx512 && best_backend() == Backend::kAvx512)
    return erase_positions_avx512(columns, col_d, n, positions, count);
#endif
  (void)backend;
  return erase_positions_scalar(columns, col_d, n, positions, count);
}

}  // namespace rfid::simd
