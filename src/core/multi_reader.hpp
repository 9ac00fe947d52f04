// Multi-reader zone partition (paper Section II-A: the protocols "can be
// easily modified for multiple readers when the collision-free transmission
// schedule among the readers is established").
//
// The backend server partitions the known inventory across R readers by a
// keyed hash of the tag ID: balanced and distribution-independent. The
// schedule itself — readers sharing C frequency channels, with overlapping
// zones, churn and reader faults — is core::Deployment
// (core/deployment.hpp); this header holds only the partition function.
#pragma once

#include <cstddef>
#include <cstdint>

#include "common/hash.hpp"
#include "common/tag_id.hpp"

namespace rfid::core {

/// The partition function: which reader covers `id` (exposed for tests).
[[nodiscard]] std::size_t reader_of(const TagId& id, std::size_t readers,
                                    std::uint64_t partition_seed);

/// A TagId split into the (hi, lo) words tags::TagSoA stores and
/// tag_hash_words consumes.
struct IdWords final {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
};
[[nodiscard]] constexpr IdWords id_words(const TagId& id) noexcept {
  return {(static_cast<std::uint64_t>(id.words[0]) << 32) | id.words[1],
          static_cast<std::uint64_t>(id.words[2])};
}

/// reader_of over the ID words (readers >= 1); reader_of wraps it, the way
/// tag_hash wraps tag_hash_words.
[[nodiscard]] constexpr std::size_t reader_of_words(
    IdWords id, std::size_t readers, std::uint64_t partition_seed) noexcept {
  const std::uint64_t hash = tag_hash_words(partition_seed, id.hi, id.lo);
  return static_cast<std::size_t>(hash % readers);
}

}  // namespace rfid::core
