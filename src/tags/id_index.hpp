// Membership checks over the IDs of a tag vector.
//
// Two tools answer "does an ID repeat?" without a per-ID heap node:
//
//   * has_repeated_id — one bulk pass over a finished vector. The two
//     uniform population factories draw all n IDs first and check them
//     here once, and the checking TagPopulation constructor checks its
//     vector here.
//   * IdIndex — a per-draw index that answers at every insert. It serves
//     prefix_clustered, whose category is the kept count mod `categories`
//     and so must see each repeat as it is drawn; the rerun a uniform
//     factory falls back to when the bulk pass finds a repeat, which
//     redraws that repeat where it was drawn; and the lookups by ID of
//     sim::verify_accounted_once, the delivered-or-listed check that
//     sim::verify_complete_collection and core::Deployment::finish share.
//
// IdIndex is open addressing with linear probing over a power-of-two
// array, sized once for at most `capacity` IDs so the load never exceeds
// 1/2. A slot holds 1 + the position of a tag in the vector being built or
// checked (0 marks an empty slot). The ID is read through that position at
// lookup time and compared in full, all 96 bits: two IDs with equal
// fold64() never alias. The caller passes the vector to every call, so a
// vector that grows (and reallocates) between calls stays safe. Neither
// tool has an iteration API, so nothing can derive output from slot order.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "tags/tag.hpp"

namespace rfid::tags {

/// The mean block size has_repeated_id keeps to: a block's table (4-byte
/// slots, at most half full) stays near 1 MB, about one core's L2.
inline constexpr std::size_t kIdsPerBlock = std::size_t{1} << 17;

/// True when two of `tags` hold the same ID. One cache-blocked pass: up
/// to kIdsPerBlock IDs are checked in place through one open-addressing
/// table; more are first partitioned by the top bits of mix64(fold64())
/// into blocks of about kIdsPerBlock, so a repeat always lands in its
/// twin's block, and each block is checked through one such table. Every
/// probe compares all 96 bits. Requires fewer than 2^32 − 1 tags.
[[nodiscard]] bool has_repeated_id(std::span<const Tag> tags);

class IdIndex final {
 public:
  /// Returned by find() and insert() when no indexed tag holds the ID.
  static constexpr std::size_t kAbsent =
      std::numeric_limits<std::size_t>::max();

  /// An empty index for up to `capacity` tags; positions are 32-bit, so
  /// capacity must stay below 2^32 − 1.
  explicit IdIndex(std::size_t capacity) : capacity_(capacity) {
    RFID_EXPECTS(capacity < std::numeric_limits<std::uint32_t>::max());
    slots_.resize(std::bit_ceil(std::max<std::size_t>(2 * capacity, 1)));
    mask_ = slots_.size() - 1;
  }

  /// Position in `tags` of the indexed tag whose ID equals `id`, or kAbsent.
  [[nodiscard]] std::size_t find(std::span<const Tag> tags,
                                 const TagId& id) const noexcept {
    const std::uint32_t entry = slots_[probe(tags, id)];
    return entry == 0 ? kAbsent : entry - 1;
  }

  /// Indexes tags[pos]. Returns kAbsent when its ID is new; otherwise
  /// returns the position of the indexed tag that already holds the ID and
  /// leaves tags[pos] out of the index.
  std::size_t insert(std::span<const Tag> tags, std::size_t pos) {
    RFID_EXPECTS(pos < tags.size() && size_ < capacity_);
    const std::size_t slot = probe(tags, tags[pos].id());
    if (slots_[slot] != 0) return slots_[slot] - 1;
    slots_[slot] = static_cast<std::uint32_t>(pos + 1);
    ++size_;
    return kAbsent;
  }

 private:
  /// The slot holding `id`, or the empty slot where it would go.
  [[nodiscard]] std::size_t probe(std::span<const Tag> tags,
                                  const TagId& id) const noexcept {
    std::size_t slot = mix64(id.fold64()) & mask_;
    while (slots_[slot] != 0 && tags[slots_[slot] - 1].id() != id)
      slot = (slot + 1) & mask_;
    return slot;
  }

  std::vector<std::uint32_t> slots_;
  std::size_t mask_ = 0;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
};

}  // namespace rfid::tags
