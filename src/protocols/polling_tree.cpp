#include "protocols/polling_tree.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rfid::protocols {

PollingTree::PollingTree(std::span<const std::uint32_t> indices, unsigned h)
    : height_(h) {
  RFID_EXPECTS(h <= 31);
  nodes_.emplace_back();  // virtual root
  for (const std::uint32_t index : indices) {
    RFID_EXPECTS(h == 31 || index < (1u << h));
    std::int32_t current = 0;
    for (unsigned depth = 0; depth < h; ++depth) {
      const unsigned bit = (index >> (h - 1 - depth)) & 1u;
      std::int32_t next = nodes_[static_cast<std::size_t>(current)].child[bit];
      if (next < 0) {
        next = static_cast<std::int32_t>(nodes_.size());
        nodes_.emplace_back();
        nodes_[static_cast<std::size_t>(current)].child[bit] = next;
        ++node_count_;
        if (depth + 1 == h) ++leaf_count_;
      } else {
        // Revisiting a full-length path means a duplicate index.
        RFID_EXPECTS(depth + 1 < h && "duplicate singleton index");
      }
      current = next;
    }
    if (h == 0) {
      // Degenerate tree: a single remaining tag needs no vector bits; the
      // root itself stands for the empty index.
      leaf_count_ = 1;
    }
  }
}

std::vector<TreeSegment> PollingTree::segments() const {
  std::vector<TreeSegment> out;
  out.reserve(leaf_count_);
  if (height_ == 0) {
    if (leaf_count_ == 1) out.push_back(TreeSegment{0, 0, 0});
    return out;
  }
  // Iterative pre-order; right child pushed first so left is visited first.
  struct Frame final {
    std::int32_t node;
    unsigned depth;
    std::uint32_t prefix;
  };
  std::vector<Frame> stack;
  std::uint32_t pending_bits = 0;  // edge bits accumulated since last leaf
  unsigned pending_len = 0;
  stack.push_back(Frame{0, 0, 0});
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    if (frame.node != 0) {
      // Entering a non-root node contributes its edge bit to the current
      // segment; the edge bit is the lowest bit of the prefix so far.
      pending_bits = (pending_bits << 1) | (frame.prefix & 1u);
      ++pending_len;
    }
    if (frame.depth == height_) {
      out.push_back(TreeSegment{pending_bits, pending_len, frame.prefix});
      pending_bits = 0;
      pending_len = 0;
      continue;
    }
    const Node& node = nodes_[static_cast<std::size_t>(frame.node)];
    for (int bit = 1; bit >= 0; --bit) {
      const std::int32_t child = node.child[bit];
      if (child >= 0) {
        stack.push_back(Frame{child, frame.depth + 1,
                              (frame.prefix << 1) |
                                  static_cast<std::uint32_t>(bit)});
      }
    }
  }
  return out;
}

std::vector<TreeSegment> PollingTree::segments_from_indices(
    std::span<const std::uint32_t> indices, unsigned h) {
  std::vector<std::uint32_t> sorted(indices.begin(), indices.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<TreeSegment> out;
  out.reserve(sorted.size());
  std::uint32_t previous = 0;
  for (std::size_t j = 0; j < sorted.size(); ++j) {
    const std::uint32_t index = sorted[j];
    RFID_EXPECTS((j == 0 || previous < index) && "duplicate singleton index");
    const unsigned k = tree_segment_length(j == 0, previous, index, h);
    const std::uint32_t mask = (k >= 32) ? ~0u : ((1u << k) - 1u);
    out.push_back(TreeSegment{index & mask, k, index});
    previous = index;
  }
  return out;
}

std::vector<std::uint32_t> PollingTree::decode_segment_stream(
    const BitVec& stream, std::span<const unsigned> lengths, unsigned h) {
  RFID_EXPECTS(h <= 31);
  std::size_t total = 0;
  for (const unsigned k : lengths) {
    RFID_EXPECTS(k <= h);
    total += k;
  }
  RFID_EXPECTS(total == stream.size());

  const std::uint32_t h_mask = (h == 0) ? 0u : ((1u << h) - 1u);
  std::vector<std::uint32_t> out;
  out.reserve(lengths.size());
  std::uint32_t reg = 0;
  BitReader reader(stream);
  for (const unsigned k : lengths) {
    const auto bits = static_cast<std::uint32_t>(reader.read_bits(k));
    const std::uint32_t keep_mask = (k >= 32) ? 0u : (~0u << k);
    reg = (reg & keep_mask & h_mask) | bits;
    out.push_back(reg);
  }
  return out;
}

std::size_t PollingTree::max_node_count(std::size_t m, unsigned h) {
  if (m == 0) return 0;
  if (m == 1) return h;  // a single leaf is one chain of h nodes
  // Eq. (7): the tree bifurcates as early as possible — complete binary tree
  // of k levels (2^{k+1} - 2 nodes) followed by m parallel chains of length
  // h - k, where 2^k < m <= 2^{k+1}.
  unsigned k = 0;
  while ((std::size_t{1} << (k + 1)) < m) ++k;
  const std::size_t full = (std::size_t{2} << k) - 2;
  const std::size_t chains =
      (h > k) ? m * static_cast<std::size_t>(h - k) : 0;
  return full + chains;
}

}  // namespace rfid::protocols
