// A simulated sensor-augmented RFID tag.
//
// Tags carry a 96-bit EPC identifier plus an m-bit information payload
// (battery level, temperature, product data — the paper's Section I use
// cases). A Tag is its ID alone: stored payloads live in one packed column
// on tags::TagPopulation, read through TagPopulation::reply_payload, so a
// population of a million tags takes 12 MB. Protocol-specific runtime
// state (picked index, TPP bit array, sleep flag) lives in per-protocol
// device structs, not here, because a physical tag's identity outlives any
// one inventory session.
#pragma once

#include "common/bitvec.hpp"
#include "common/hash.hpp"
#include "common/tag_id.hpp"

namespace rfid::tags {

class Tag final {
 public:
  Tag() = default;
  explicit Tag(TagId id) : id_(id) {}

  [[nodiscard]] const TagId& id() const noexcept { return id_; }

 private:
  TagId id_{};
};

static_assert(sizeof(Tag) == sizeof(TagId), "a Tag is its 96-bit ID alone");

/// The deterministic payload a tag with no long enough stored payload
/// replies with, derived from its ID, so reader-side verification can
/// recompute the expected value without a side channel.
[[nodiscard]] BitVec derived_payload(const TagId& id, std::size_t bits);

}  // namespace rfid::tags
