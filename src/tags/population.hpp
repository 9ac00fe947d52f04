// Tag population generation — the simulator's workload generator.
//
// The paper assumes the reader knows all tag IDs in advance (Section II-A);
// a TagPopulation is exactly that shared knowledge: an immutable set of
// unique tags the reader and the air interface both reference.
//
// Three ID distributions cover the paper's scenarios:
//   * uniform_random  — the paper's general case ("no assumption on the
//                       distribution of tag IDs", Section II-B)
//   * sequential      — worst case for hash-free schemes, common in freshly
//                       commissioned inventory
//   * prefix_clustered — tags sharing category IDs, the case motivating the
//                       enhanced-CPP baseline (Section II-B)
//
// Uniqueness is checked once, in bulk (tags::has_repeated_id). The two
// uniform factories draw all n IDs, then make one cache-blocked pass over
// them; the public constructor makes the same pass over the caller's
// vector. Only when that pass finds a repeat does a factory rerun its
// draws from the start through the per-draw tags::IdIndex, which redraws
// each repeat where it was drawn, so every seeded ID, its order and the
// stream's end state stay what a per-draw check gives. prefix_clustered
// always checks per draw, because each draw's category depends on how
// many IDs were kept before it. Sequential IDs and payload copies are
// distinct by construction and skip the check. Positions are 32-bit, so a
// checked population holds fewer than 2^32 − 1 tags.
//
// Stored payloads, when a population has them, sit in one packed column:
// payload_bits() bits per tag, in population order. A tag's reply is read
// through reply_payload.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "common/bitvec.hpp"
#include "common/rng.hpp"
#include "tags/tag.hpp"

namespace rfid::tags {

/// Immutable collection of unique tags.
class TagPopulation final {
 public:
  TagPopulation() = default;

  /// Takes ownership of `tags`; throws ContractViolation on duplicate IDs.
  explicit TagPopulation(std::vector<Tag> tags);

  [[nodiscard]] std::size_t size() const noexcept { return tags_.size(); }
  [[nodiscard]] bool empty() const noexcept { return tags_.empty(); }

  [[nodiscard]] const Tag& operator[](std::size_t i) const { return tags_[i]; }

  [[nodiscard]] std::span<const Tag> tags() const noexcept { return tags_; }

  [[nodiscard]] auto begin() const noexcept { return tags_.begin(); }
  [[nodiscard]] auto end() const noexcept { return tags_.end(); }

  /// Stored payload bits per tag; 0 when the population has no payloads.
  [[nodiscard]] std::size_t payload_bits() const noexcept {
    return payload_bits_;
  }

  /// The `bits`-long reply tag `i` transmits when polled: the prefix of
  /// its stored payload when that holds at least `bits` bits, otherwise
  /// derived_payload(id, bits).
  [[nodiscard]] BitVec reply_payload(std::size_t i, std::size_t bits) const;

  /// n tags with uniformly random unique 96-bit IDs.
  [[nodiscard]] static TagPopulation uniform_random(std::size_t n,
                                                    Xoshiro256ss& id_rng);

  /// n tags generated as `shards` independent slices: shard s draws IDs for
  /// indices [s·n/shards, (s+1)·n/shards) from its own stream seeded
  /// derive_seed(seed, s), so each slice is pure in (seed, shard) and the
  /// million-tag sweeps need not thread every draw through one stream. A
  /// repeat within a shard is redrawn; a repeat of an earlier shard's ID
  /// throws ContractViolation (vanishingly rare with 96-bit IDs).
  [[nodiscard]] static TagPopulation uniform_random_sharded(std::size_t n,
                                                            std::uint64_t seed,
                                                            std::size_t shards);

  /// n tags with consecutive IDs starting at `first` (low word increments).
  [[nodiscard]] static TagPopulation sequential(std::size_t n,
                                                std::uint64_t first = 0);

  /// n tags split across `categories` groups; tags in a group share a random
  /// `prefix_bits`-bit ID prefix (category ID), remaining bits random.
  [[nodiscard]] static TagPopulation prefix_clustered(std::size_t n,
                                                      std::size_t categories,
                                                      std::size_t prefix_bits,
                                                      Xoshiro256ss& id_rng);

  /// Returns a copy whose tags carry `bits`-long random sensor payloads,
  /// drawn tag by tag, bit by bit, as bernoulli(0.5).
  [[nodiscard]] TagPopulation with_random_payloads(std::size_t bits,
                                                   Xoshiro256ss& id_rng) const;

  /// Returns a copy in which tag i stores bits [i·bits, (i+1)·bits) of
  /// `payloads`, which must hold exactly size()·bits bits.
  [[nodiscard]] TagPopulation with_payloads(std::size_t bits,
                                            BitVec payloads) const;

 private:
  /// Marks a vector whose IDs its factory has already proven distinct.
  struct Distinct final {};
  TagPopulation(Distinct, std::vector<Tag> tags);

  std::vector<Tag> tags_;
  BitVec payloads_;
  std::size_t payload_bits_ = 0;
};

}  // namespace rfid::tags
