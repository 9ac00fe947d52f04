#include "tags/id_index.hpp"

#include <array>
#include <memory>

namespace rfid::tags {

namespace {

/// An ID's words as a trivial type, so the grouped copy below is
/// allocated without being zeroed first.
using Words = std::array<std::uint32_t, 3>;

const Words& words_of(const Tag& tag) noexcept { return tag.id().words; }
const Words& words_of(const Words& words) noexcept { return words; }

/// The hash IdIndex probes with: top bits pick the block, low bits the
/// slot.
std::uint64_t id_key(const Words& words) noexcept {
  return mix64(TagId{words}.fold64());
}

/// True when two of ids[0, size) are equal, checked through `table`,
/// which must hold at least bit_ceil(2 · size) slots. A slot holds 1 + an
/// ID's position in `ids`; equal IDs always hash alike, so a repeat meets
/// its twin on the probe path.
template <typename Id>
bool repeats_in(const Id* ids, std::size_t size, std::uint32_t* table) {
  const std::size_t mask =
      std::bit_ceil(std::max<std::size_t>(2 * size, 1)) - 1;
  std::fill_n(table, mask + 1, 0u);
  for (std::size_t i = 0; i < size; ++i) {
    const Words& words = words_of(ids[i]);
    std::size_t slot = id_key(words) & mask;
    for (; table[slot] != 0; slot = (slot + 1) & mask)
      if (words_of(ids[table[slot] - 1]) == words) return true;
    table[slot] = static_cast<std::uint32_t>(i + 1);
  }
  return false;
}

}  // namespace

bool has_repeated_id(std::span<const Tag> tags) {
  const std::size_t n = tags.size();
  RFID_EXPECTS(n < std::numeric_limits<std::uint32_t>::max());
  if (n < 2) return false;
  // 2^block_bits blocks, the fewest that keep the mean block at or below
  // kIdsPerBlock. One block needs no grouping.
  const auto block_bits =
      static_cast<unsigned>(std::bit_width((n - 1) / kIdsPerBlock));
  if (block_bits == 0) {
    std::vector<std::uint32_t> table(std::bit_ceil(2 * n));
    return repeats_in(tags.data(), n, table.data());
  }
  const std::size_t blocks = std::size_t{1} << block_bits;
  const auto block_of = [block_bits](std::uint64_t key) noexcept {
    return static_cast<std::size_t>(key >> (64 - block_bits));
  };

  // Block sizes, then block starts.
  std::vector<std::size_t> start(blocks + 1, 0);
  for (const Tag& tag : tags) ++start[block_of(id_key(words_of(tag))) + 1];
  std::size_t largest = 0;
  for (std::size_t b = 1; b <= blocks; ++b) {
    largest = std::max(largest, start[b]);
    start[b] += start[b - 1];
  }

  // Every ID copied into its block, in input order, then each block
  // checked on its own through one table sized for the largest.
  const auto grouped = std::make_unique_for_overwrite<Words[]>(n);
  std::vector<std::size_t> cursor(start.begin(), start.end() - 1);
  for (const Tag& tag : tags) {
    const Words& words = words_of(tag);
    grouped[cursor[block_of(id_key(words))]++] = words;
  }
  std::vector<std::uint32_t> table(std::bit_ceil(2 * largest));
  for (std::size_t b = 0; b < blocks; ++b)
    if (repeats_in(grouped.get() + start[b], start[b + 1] - start[b],
                   table.data()))
      return true;
  return false;
}

}  // namespace rfid::tags
