// Structure-of-arrays view of the active (still-unread) population.
//
// The round engine's hot loop touches three things per tag per round: the
// two 64-bit ID words feeding H(r, id), the picked bucket slot, and the
// done flag. The old array-of-structs device list (Tag pointer + index +
// presence) made every hash a pointer chase into the Tag object; this view
// keeps each field in its own contiguous array so the batched kernels in
// common/simd.hpp stream the ID words at full width and the compaction
// walks plain arrays. Element i of every array describes the same tag —
// all mutators below preserve that alignment and the relative order of
// surviving elements (protocol semantics depend on ascending dispatch
// order).
//
// The tag column stays: polls, records and presence checks need the full
// object. It holds each Tag's address as a std::uintptr_t, so the kernels
// that move it (compaction, the circle split) copy a genuine integer
// column, and it is simply no longer on the hashing path. Presence
// itself is NOT mirrored here — the polling loops query
// sim::Session::is_present live so churn schedules are honoured, and a
// cached copy would only invite stale reads.
//
// A churning core::Deployment adds a fifth column, each tag's churn
// horizon (carry_horizons), so its churn scan compares one sequential
// array with the tick. Every mutator but split_circle carries it; a
// TagSoA without it moves exactly the four columns above.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "common/simd.hpp"
#include "tags/tag.hpp"

namespace rfid::tags {

class TagSoA final {
 public:
  [[nodiscard]] std::size_t size() const noexcept { return tag_.size(); }
  [[nodiscard]] bool empty() const noexcept { return tag_.empty(); }

  void reserve(std::size_t n);
  void clear() noexcept;

  /// Adds the churn-horizon column, zeroed for the elements already held.
  /// Every mutator carries it from then on, split_circle excepted.
  void carry_horizons();
  [[nodiscard]] bool carries_horizons() const noexcept { return horizons_; }

  /// Appends one tag, splitting its 96-bit ID into the (hi, lo) words
  /// rfid::tag_hash_words consumes. The new element's slot is 0 until a
  /// round writes it; its horizon, if the column is carried, is `horizon`.
  void push_back(const Tag* tag, std::uint32_t horizon = 0);

  /// Resizes to exactly `n` elements; new elements are zeroed.
  void resize(std::size_t n);

  /// Makes each element the tag of `population` at the position its slot
  /// holds, as push_back would have appended it, and zeroes the slot; a
  /// carried horizon stays as it is. Placement writes a reader's
  /// population positions into the slots of a resize()d TagSoA, then
  /// gathers its tags in one sequential pass.
  void gather(std::span<const Tag> population);

  [[nodiscard]] const Tag* tag(std::size_t i) const noexcept {
    return reinterpret_cast<const Tag*>(tag_[i]);
  }
  [[nodiscard]] std::uint64_t id_hi(std::size_t i) const noexcept {
    return id_hi_[i];
  }
  [[nodiscard]] std::uint64_t id_lo(std::size_t i) const noexcept {
    return id_lo_[i];
  }

  /// The bucket index the tag picked this round (written wholesale by the
  /// engine's batched hash; DFSA writes per element). Round-scoped
  /// SCRATCH: every round overwrites slots [0, size()) before reading
  /// any, and no mutator below promises to preserve them — compaction
  /// skips the column entirely so the hot path never pays for moving
  /// values the next round immediately clobbers.
  [[nodiscard]] std::uint32_t slot(std::size_t i) const noexcept {
    return slot_[i];
  }
  void set_slot(std::size_t i, std::uint32_t value) noexcept {
    slot_[i] = value;
  }

  /// The churn horizon core::Deployment keeps per tag (only when
  /// carries_horizons()): a tick no later than the first at which the
  /// tag's zone or owner can change.
  [[nodiscard]] std::uint32_t horizon(std::size_t i) const noexcept {
    return horizon_[i];
  }

  // Flat-array surface for the batched kernels (common/simd.hpp).
  [[nodiscard]] const std::uint64_t* id_hi_data() const noexcept {
    return id_hi_.data();
  }
  [[nodiscard]] const std::uint64_t* id_lo_data() const noexcept {
    return id_lo_.data();
  }
  [[nodiscard]] std::uint32_t* slot_data() noexcept { return slot_.data(); }
  [[nodiscard]] std::uint32_t* horizon_data() noexcept {
    return horizon_.data();
  }

  /// Order-preserving erase of every element whose done flag is set.
  /// Slots are left stale (round-scoped scratch, see slot()).
  void compact(const std::vector<char>& done);

  /// Order-preserving erase of the `count` elements at `positions`, which
  /// ascend strictly and lie below size(). Slots are left stale. Runs
  /// through simd::erase_positions; any backend erases exactly the same
  /// elements.
  void erase(const std::uint32_t* positions, std::size_t count,
             simd::Backend backend);

  /// Order-preserving erase of every element whose picked slot is a
  /// singleton bucket (counts[slot] == 1) — the clean-round compaction,
  /// where every singleton poll deterministically succeeded and every
  /// collision-bucket tag stays awake. Slots are left stale. Runs through
  /// simd::compact_nonsingletons; any backend keeps exactly the same
  /// elements in the same order.
  void compact_singletons(const std::vector<std::uint32_t>& counts,
                          simd::Backend backend);

  /// Elements split_circle hands the kernel per call; a chunk's members
  /// are staged on the stack before they are appended.
  static constexpr std::size_t kSplitChunk = 512;

  /// EHPP's circle split (paper §III-D): every element whose ID hashes to
  /// H(seed, id) mod modulus < threshold is appended, in order, to
  /// `members` (a different TagSoA, slots 0); the rest are compacted in
  /// place, in order. `modulus` must be a power of two. Runs through
  /// simd::split_members one fixed-size chunk at a time, so the only heap
  /// growth is `members` outgrowing its capacity; any backend splits
  /// exactly the same way. EHPP's circles never churn: a TagSoA that
  /// carries horizons is a contract violation.
  void split_circle(std::uint64_t seed, std::uint64_t modulus,
                    std::uint64_t threshold, TagSoA& members,
                    simd::Backend backend);

 private:
  static_assert(std::is_same_v<std::uintptr_t, std::uint64_t>,
                "the kernels move the tag column as 64-bit words");

  /// The identity columns from element `i` on, as the kernels see them.
  [[nodiscard]] simd::IdColumns columns(std::size_t i) noexcept {
    return {tag_.data() + i, id_hi_.data() + i, id_lo_.data() + i};
  }

  std::vector<std::uintptr_t> tag_;
  std::vector<std::uint64_t> id_hi_;
  std::vector<std::uint64_t> id_lo_;
  std::vector<std::uint32_t> slot_;
  std::vector<std::uint32_t> horizon_;  ///< empty unless horizons_
  bool horizons_ = false;
};

}  // namespace rfid::tags
