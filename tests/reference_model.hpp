// A slow, independent model of HPP and TPP on a clean channel.
//
// The round engine reaches its metrics through a structure-of-arrays tag
// view, SIMD index kernels, a bucket histogram, a batched airtime fold and
// (per poll) the air loop and the polling tree. This model uses none of
// them. It walks the unread tags one at a time, counts their picked
// indices in an ordered map, addresses each singleton the way the paper
// describes, and prices every transmission from the §V-A constants. What
// it shares with the engine is only what both must agree on by definition:
// the tag-side index pick (tag_index_pow2), the reader's protocol RNG
// stream, and the Metrics record it fills in.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/tag_id.hpp"
#include "obs/metrics.hpp"

namespace rfid::reference {

enum class Protocol { kHpp, kTpp };

/// Drains `ids` with `protocol` on a clean channel, as a session seeded
/// with `seed` and collecting `info_bits` per tag would, and returns the
/// run's metrics.
[[nodiscard]] obs::Metrics run_clean(Protocol protocol,
                                     std::span<const TagId> ids,
                                     std::uint64_t seed,
                                     std::size_t info_bits);

}  // namespace rfid::reference
