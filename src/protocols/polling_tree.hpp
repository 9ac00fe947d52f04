// The binary polling tree of TPP (paper Section IV-C).
//
// Given the singleton indices of a round, the reader builds a binary trie
// (left edge = 0, right edge = 1, all leaves at depth h) and broadcasts its
// pre-order traversal. Each leaf is completed by the segment of nodes since
// the previous leaf, so common prefixes of consecutive singleton indices are
// transmitted exactly once; the total broadcast of a round equals the node
// count of the trie (excluding the virtual root).
//
// Because the trie's pre-order leaf sequence is the singleton indices in
// ascending order, the segment lengths are also computable directly from the
// sorted indices (h minus the common-prefix length with the predecessor).
// Both constructions are implemented; the property tests require them to
// agree on every input.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bitvec.hpp"

namespace rfid::protocols {

/// The segment-length rule of the pre-order broadcast (Section IV-C3): the
/// segment that completes leaf `index` holds the bits below its common
/// prefix with the previous leaf `previous` (ascending order, so
/// previous < index), i.e. floor_log2(previous ^ index) + 1 bits. The
/// round's first leaf has no predecessor and takes all `h` bits.
[[nodiscard]] constexpr unsigned tree_segment_length(
    bool first, std::uint32_t previous, std::uint32_t index,
    unsigned h) noexcept {
  return first ? h : static_cast<unsigned>(std::bit_width(previous ^ index));
}

/// One pre-order broadcast segment; transmitting it completes one leaf.
struct TreeSegment final {
  std::uint32_t bits = 0;            ///< segment payload, MSB-first in `length`
  unsigned length = 0;               ///< k: number of bits in this segment
  /// The singleton index the segment completes.
  std::uint32_t completed_index = 0;
};

/// Explicit node-based binary trie over fixed-length indices.
class PollingTree final {
 public:
  /// Builds the trie from `indices` (each h bits). Duplicate indices are a
  /// precondition violation — only *singleton* indices enter the tree.
  PollingTree(std::span<const std::uint32_t> indices, unsigned h);

  /// Number of nodes excluding the virtual root == total broadcast bits.
  [[nodiscard]] std::size_t node_count() const noexcept { return node_count_; }

  [[nodiscard]] std::size_t leaf_count() const noexcept { return leaf_count_; }

  [[nodiscard]] unsigned height() const noexcept { return height_; }

  /// Pre-order traversal segments (Section IV-C3).
  [[nodiscard]] std::vector<TreeSegment> segments() const;

  /// Independent construction of the same segments straight from the index
  /// list (any order; it is sorted first), without building a trie. Used to
  /// cross-validate segments(). Duplicate indices are a precondition
  /// violation, as for the trie.
  [[nodiscard]] static std::vector<TreeSegment> segments_from_indices(
      std::span<const std::uint32_t> indices, unsigned h);

  /// The paper's Eq. (7): maximal node count of a trie with m leaves of
  /// height h (tree bifurcates as early as possible).
  [[nodiscard]] static std::size_t max_node_count(std::size_t m, unsigned h);

  /// Tag-side replay of a pre-order segment stream: every tag keeps an h-bit
  /// register A and overwrites its last k bits with each received k-bit
  /// segment; the value A takes after each segment (the index that segment
  /// completes) is returned, one entry per element of `lengths`. Segment
  /// boundaries arrive out-of-band (the tag counts bits), so a flipped
  /// payload bit in `stream` corrupts the *values* the register takes — and,
  /// because the untouched high bits of A carry state forward, indices
  /// decoded after the flip too — while the framing stays intact. This is
  /// the failure mode the unframed-corruption regression test demonstrates.
  [[nodiscard]] static std::vector<std::uint32_t> decode_segment_stream(
      const BitVec& stream, std::span<const unsigned> lengths, unsigned h);

 private:
  struct Node final {
    std::int32_t child[2] = {-1, -1};
  };

  std::vector<Node> nodes_;  ///< nodes_[0] is the virtual root
  std::size_t node_count_ = 0;
  std::size_t leaf_count_ = 0;
  unsigned height_ = 0;
};

}  // namespace rfid::protocols
