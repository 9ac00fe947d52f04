// Unit and property tests for the TPP polling tree (paper Section IV-C).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <vector>

#include "common/bitvec.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "protocols/polling_tree.hpp"

namespace rfid::protocols {
namespace {

std::vector<std::uint32_t> paper_example_indices() {
  // Fig. 6 of the paper: five singleton indices with h = 3 picked by tags
  // A..E: 000, 010, 011, 101, 111.
  return {0b000, 0b010, 0b011, 0b101, 0b111};
}

std::vector<std::uint32_t> random_indices(unsigned h, double density,
                                          Xoshiro256ss& rng) {
  const std::size_t space = std::size_t{1} << h;
  std::set<std::uint32_t> chosen;
  const auto target = static_cast<std::size_t>(
      std::max(1.0, density * static_cast<double>(space)));
  while (chosen.size() < std::min(target, space))
    chosen.insert(static_cast<std::uint32_t>(rng.below(space)));
  return {chosen.begin(), chosen.end()};
}

TEST(PollingTree, PaperExampleNodeCount) {
  // Fig. 7: the reader transmits 11 bits in total instead of 5 * 3 = 15.
  const auto indices = paper_example_indices();
  const PollingTree tree(indices, 3);
  EXPECT_EQ(tree.node_count(), 11u);
  EXPECT_EQ(tree.leaf_count(), 5u);
  EXPECT_EQ(tree.height(), 3u);
}

TEST(PollingTree, PaperExampleSegments) {
  // Fig. 7 broadcast sequence: "000", "10", "1", "101", "11".
  const auto indices = paper_example_indices();
  const auto segments = PollingTree(indices, 3).segments();
  ASSERT_EQ(segments.size(), 5u);
  const std::vector<std::pair<std::uint32_t, unsigned>> expected = {
      {0b000, 3}, {0b10, 2}, {0b1, 1}, {0b101, 3}, {0b11, 2}};
  const std::vector<std::uint32_t> completed = {0b000, 0b010, 0b011, 0b101,
                                                0b111};
  for (std::size_t j = 0; j < 5; ++j) {
    EXPECT_EQ(segments[j].bits, expected[j].first) << "segment " << j;
    EXPECT_EQ(segments[j].length, expected[j].second) << "segment " << j;
    EXPECT_EQ(segments[j].completed_index, completed[j]) << "segment " << j;
  }
}

TEST(PollingTree, SegmentsFromIndicesMatchesPaperExample) {
  const auto indices = paper_example_indices();
  const auto segments = PollingTree::segments_from_indices(indices, 3);
  ASSERT_EQ(segments.size(), 5u);
  EXPECT_EQ(segments[0].length, 3u);
  EXPECT_EQ(segments[1].length, 2u);
  EXPECT_EQ(segments[2].length, 1u);
  EXPECT_EQ(segments[3].length, 3u);
  EXPECT_EQ(segments[4].length, 2u);
}

TEST(PollingTree, SingleLeafCostsFullHeight) {
  const std::vector<std::uint32_t> one = {0b1010};
  const PollingTree tree(one, 4);
  EXPECT_EQ(tree.node_count(), 4u);
  const auto segments = tree.segments();
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].length, 4u);
  EXPECT_EQ(segments[0].bits, 0b1010u);
}

TEST(PollingTree, FullTreeSharesEverything) {
  // All 2^h indices: node count = 2^{h+1} - 2 (complete binary tree).
  std::vector<std::uint32_t> all(16);
  std::iota(all.begin(), all.end(), 0);
  const PollingTree tree(all, 4);
  EXPECT_EQ(tree.node_count(), 30u);
  EXPECT_EQ(tree.leaf_count(), 16u);
  // Average bits per leaf in a full tree: (2^{h+1} - 2) / 2^h < 2.
  EXPECT_LT(double(tree.node_count()) / double(tree.leaf_count()), 2.0);
}

TEST(PollingTree, HeightZeroDegenerateCase) {
  const std::vector<std::uint32_t> lone = {0};
  const PollingTree tree(lone, 0);
  EXPECT_EQ(tree.node_count(), 0u);
  const auto segments = tree.segments();
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_EQ(segments[0].length, 0u);
}

TEST(PollingTree, DuplicateIndicesRejected) {
  const std::vector<std::uint32_t> dup = {3, 3};
  EXPECT_THROW(PollingTree(dup, 2), ContractViolation);
  EXPECT_THROW(PollingTree::segments_from_indices(dup, 2), ContractViolation);
}

TEST(PollingTree, IndexOutOfRangeRejected) {
  const std::vector<std::uint32_t> bad = {4};
  EXPECT_THROW(PollingTree(bad, 2), ContractViolation);
}

TEST(PollingTree, SegmentsVisitLeavesInAscendingOrder) {
  const std::vector<std::uint32_t> indices = {6, 1, 4, 0, 7};
  const auto segments = PollingTree(indices, 3).segments();
  for (std::size_t j = 1; j < segments.size(); ++j)
    EXPECT_LT(segments[j - 1].completed_index, segments[j].completed_index);
}

TEST(PollingTree, MaxNodeCountEquationSeven) {
  // Eq. (7) spot checks: m = 2, h = 3 -> 6; m = 5, h = 3 -> 11; m=1 -> h.
  EXPECT_EQ(PollingTree::max_node_count(1, 7), 7u);
  EXPECT_EQ(PollingTree::max_node_count(2, 3), 6u);
  EXPECT_EQ(PollingTree::max_node_count(5, 3), 2u * 4u - 2u + 5u * 1u);
  EXPECT_EQ(PollingTree::max_node_count(0, 5), 0u);
}

// ---------------------------------------------------------------------------
// Tag-side stream decoding and the unframed-corruption regression.

BitVec stream_of(const std::vector<TreeSegment>& segments) {
  BitVec stream;
  for (const TreeSegment& seg : segments)
    stream.append_bits(seg.bits, seg.length);
  return stream;
}

std::vector<unsigned> lengths_of(const std::vector<TreeSegment>& segments) {
  std::vector<unsigned> lengths;
  for (const TreeSegment& seg : segments) lengths.push_back(seg.length);
  return lengths;
}

BitVec flip_bit(const BitVec& stream, std::size_t pos) {
  BitVec out;
  for (std::size_t i = 0; i < stream.size(); ++i)
    out.push_back(i == pos ? !stream.bit(i) : stream.bit(i));
  return out;
}

TEST(DecodeSegmentStream, ReconstructsPaperExample) {
  const auto indices = paper_example_indices();
  const auto segments = PollingTree::segments_from_indices(indices, 3);
  const auto decoded = PollingTree::decode_segment_stream(
      stream_of(segments), lengths_of(segments), 3);
  EXPECT_EQ(decoded, indices);  // already sorted
}

TEST(DecodeSegmentStream, RejectsLengthMismatch) {
  const auto indices = paper_example_indices();
  const auto segments = PollingTree::segments_from_indices(indices, 3);
  BitVec truncated = stream_of(segments);
  std::vector<unsigned> lengths = lengths_of(segments);
  lengths.push_back(2);  // claims more bits than the stream holds
  EXPECT_THROW(PollingTree::decode_segment_stream(truncated, lengths, 3),
               ContractViolation);
}

// The regression the framing layer exists to prevent: the pre-order stream
// is differential, so one un-framed bit flip silently mis-addresses every
// tag at and after the flip point. With all singleton indices below
// 2^(h-1), the register's most significant bit is written exactly once (by
// the first, full-length segment) — flip it on the air and no later
// segment ever rewrites it, so *every* decoded index lands in the empty
// upper half of the index space: no tag is addressed, and the whole round's
// tags are stranded without any tag (or the reader) noticing.
TEST(DecodeSegmentStream, SingleBitFlipStrandsEveryTagAfterFlipPoint) {
  const std::vector<std::uint32_t> indices = {0b0001, 0b0010, 0b0101,
                                              0b0110, 0b0111};  // all < 2^3
  const unsigned h = 4;
  const auto segments = PollingTree::segments_from_indices(indices, h);
  const BitVec clean = stream_of(segments);
  const auto lengths = lengths_of(segments);
  ASSERT_EQ(PollingTree::decode_segment_stream(clean, lengths, h), indices);

  const auto corrupted = PollingTree::decode_segment_stream(
      flip_bit(clean, 0), lengths, h);  // bit 0 is the round's only MSB write
  const std::set<std::uint32_t> singleton_set(indices.begin(), indices.end());
  ASSERT_EQ(corrupted.size(), indices.size());
  for (std::size_t j = 0; j < corrupted.size(); ++j) {
    EXPECT_NE(corrupted[j], indices[j]) << "segment " << j;
    EXPECT_FALSE(singleton_set.contains(corrupted[j]))
        << "segment " << j << " still addresses a real tag";
  }
}

TEST(DecodeSegmentStream, EveryFlipCorruptsItsOwnSegment) {
  // Weaker but exhaustive: whichever bit flips, the segment containing it
  // decodes to the wrong index — the tag that segment was meant to poll
  // never replies. (Later segments may or may not heal, depending on
  // whether they overwrite the flipped position.)
  Xoshiro256ss rng(99);
  for (int trial = 0; trial < 10; ++trial) {
    const auto indices = random_indices(6, 0.3, rng);
    const auto segments = PollingTree::segments_from_indices(indices, 6);
    const BitVec clean = stream_of(segments);
    const auto lengths = lengths_of(segments);
    const auto truth = PollingTree::decode_segment_stream(clean, lengths, 6);
    for (std::size_t pos = 0; pos < clean.size(); ++pos) {
      const auto decoded = PollingTree::decode_segment_stream(
          flip_bit(clean, pos), lengths, 6);
      std::size_t seg = 0;
      std::size_t consumed = 0;
      while (consumed + lengths[seg] <= pos) consumed += lengths[seg++];
      EXPECT_NE(decoded[seg], truth[seg]) << "flip at bit " << pos;
    }
  }
}

// ---------------------------------------------------------------------------
// Property tests: randomized index sets, swept over (h, density).

// `pad` zeroes the alignment gap after `h`: gtest prints the raw bytes of
// the parameter into each ctest name (see ProjectionCase).
struct TreeCase final {
  unsigned h;
  std::uint32_t pad = 0;
  double density;  ///< fraction of the 2^h index space used
};
static_assert(sizeof(TreeCase) ==
              sizeof(unsigned) + sizeof(std::uint32_t) + sizeof(double));

TreeCase tree_case(unsigned h, double density) {
  return TreeCase{.h = h, .density = density};
}

class PollingTreeProperty : public ::testing::TestWithParam<TreeCase> {};

TEST_P(PollingTreeProperty, TrieAndSortedEncodingsAgree) {
  const unsigned h = GetParam().h;
  const double density = GetParam().density;
  Xoshiro256ss rng(1000 + h);
  for (int trial = 0; trial < 20; ++trial) {
    const auto indices = random_indices(h, density, rng);
    const PollingTree tree(indices, h);
    const auto from_tree = tree.segments();
    const auto from_sort = PollingTree::segments_from_indices(indices, h);
    ASSERT_EQ(from_tree.size(), from_sort.size());
    for (std::size_t j = 0; j < from_tree.size(); ++j) {
      EXPECT_EQ(from_tree[j].bits, from_sort[j].bits);
      EXPECT_EQ(from_tree[j].length, from_sort[j].length);
      EXPECT_EQ(from_tree[j].completed_index, from_sort[j].completed_index);
    }
  }
}

TEST_P(PollingTreeProperty, TotalBitsEqualNodeCount) {
  const unsigned h = GetParam().h;
  const double density = GetParam().density;
  Xoshiro256ss rng(2000 + h);
  for (int trial = 0; trial < 20; ++trial) {
    const auto indices = random_indices(h, density, rng);
    const PollingTree tree(indices, h);
    std::size_t bits = 0;
    for (const TreeSegment& seg : tree.segments()) bits += seg.length;
    EXPECT_EQ(bits, tree.node_count());
  }
}

TEST_P(PollingTreeProperty, NodeCountWithinEquationSevenBound) {
  const unsigned h = GetParam().h;
  const double density = GetParam().density;
  Xoshiro256ss rng(3000 + h);
  for (int trial = 0; trial < 20; ++trial) {
    const auto indices = random_indices(h, density, rng);
    const PollingTree tree(indices, h);
    EXPECT_LE(tree.node_count(),
              PollingTree::max_node_count(indices.size(), h));
    // Lower bound: every leaf contributes at least one fresh node, and the
    // deepest path costs h.
    EXPECT_GE(tree.node_count() + 1, indices.size() + (h > 0 ? 1 : 0));
  }
}

TEST_P(PollingTreeProperty, SegmentsReconstructIndices) {
  // Replaying the register-update rule over the segments must reproduce
  // exactly the sorted index set — this is the tag-side decoding contract.
  const unsigned h = GetParam().h;
  const double density = GetParam().density;
  Xoshiro256ss rng(4000 + h);
  for (int trial = 0; trial < 20; ++trial) {
    auto indices = random_indices(h, density, rng);
    const auto segments = PollingTree::segments_from_indices(indices, h);
    std::sort(indices.begin(), indices.end());
    std::uint32_t reg = 0;
    const std::uint32_t space_mask =
        h >= 32 ? ~0u : static_cast<std::uint32_t>((1ull << h) - 1);
    ASSERT_EQ(segments.size(), indices.size());
    for (std::size_t j = 0; j < segments.size(); ++j) {
      const unsigned k = segments[j].length;
      const std::uint32_t keep = (k >= 32) ? 0u : (~0u << k);
      reg = (reg & keep & space_mask) | segments[j].bits;
      EXPECT_EQ(reg, indices[j]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PollingTreeProperty,
    ::testing::Values(tree_case(1, 0.5), tree_case(2, 0.5), tree_case(3, 0.3),
                      tree_case(4, 0.35), tree_case(6, 0.35),
                      tree_case(8, 0.35), tree_case(10, 0.35),
                      tree_case(12, 0.2), tree_case(14, 0.05),
                      tree_case(16, 0.01)),
    [](const auto& param_info) {
      return "h" + std::to_string(param_info.param.h) + "_d" +
             std::to_string(int(param_info.param.density * 100));
    });

}  // namespace
}  // namespace rfid::protocols
