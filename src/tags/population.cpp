#include "tags/population.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "tags/id_index.hpp"

namespace rfid::tags {

namespace {

TagId random_id(Xoshiro256ss& id_rng) {
  TagId id;
  const std::uint64_t hi = id_rng();
  const std::uint64_t lo = id_rng();
  id.words[0] = static_cast<std::uint32_t>(hi >> 32);
  id.words[1] = static_cast<std::uint32_t>(hi);
  id.words[2] = static_cast<std::uint32_t>(lo);
  return id;
}

/// Draws until `tags` holds `last` IDs, with no check.
void draw(std::vector<Tag>& tags, std::size_t last, Xoshiro256ss& id_rng) {
  while (tags.size() < last) tags.emplace_back(random_id(id_rng));
}

/// Draws until `tags` holds `last` IDs, checking each draw against
/// `index`. A repeat of a tag at or after `first` is redrawn. A repeat of
/// an earlier tag is refused: for a shard, redrawing it would make this
/// slice depend on other shards, not on (seed, shard) alone.
void draw_redrawing(std::vector<Tag>& tags, IdIndex& index, std::size_t first,
                    std::size_t last, Xoshiro256ss& id_rng) {
  while (tags.size() < last) {
    tags.emplace_back(random_id(id_rng));
    const std::size_t earlier = index.insert(tags, tags.size() - 1);
    if (earlier == IdIndex::kAbsent) continue;
    RFID_EXPECTS(earlier >= first && "duplicate tag ID across shards");
    tags.pop_back();
  }
}

}  // namespace

TagPopulation::TagPopulation(std::vector<Tag> tags) : tags_(std::move(tags)) {
  RFID_EXPECTS(!has_repeated_id(tags_) && "duplicate tag ID in population");
}

TagPopulation::TagPopulation(Distinct, std::vector<Tag> tags)
    : tags_(std::move(tags)) {}

BitVec TagPopulation::reply_payload(std::size_t i, std::size_t bits) const {
  RFID_EXPECTS(i < tags_.size());
  if (payload_bits_ < bits) return derived_payload(tags_[i].id(), bits);
  BitVec out;
  for (std::size_t done = 0; done < bits; done += 64) {
    const auto chunk =
        static_cast<unsigned>(std::min<std::size_t>(64, bits - done));
    out.append_bits(payloads_.read_bits(i * payload_bits_ + done, chunk),
                    chunk);
  }
  return out;
}

TagPopulation TagPopulation::uniform_random(std::size_t n,
                                            Xoshiro256ss& id_rng) {
  const Xoshiro256ss start = id_rng;
  std::vector<Tag> tags;
  tags.reserve(n);
  draw(tags, n, id_rng);
  if (!has_repeated_id(tags)) return TagPopulation(Distinct{}, std::move(tags));
  // A repeat: draw again from the saved stream, redrawing each repeat
  // where it was drawn, as a per-draw check would have.
  id_rng = start;
  tags.clear();
  IdIndex index(n);
  draw_redrawing(tags, index, 0, n, id_rng);
  return TagPopulation(Distinct{}, std::move(tags));
}

TagPopulation TagPopulation::uniform_random_sharded(std::size_t n,
                                                    std::uint64_t seed,
                                                    std::size_t shards) {
  RFID_EXPECTS(shards >= 1);
  std::vector<Tag> tags;
  tags.reserve(n);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    Xoshiro256ss shard_id_rng(derive_seed(seed, shard));
    draw(tags, (shard + 1) * n / shards, shard_id_rng);
  }
  if (!has_repeated_id(tags)) return TagPopulation(Distinct{}, std::move(tags));
  // A repeat: draw again from shard 0, checking each draw.
  tags.clear();
  IdIndex index(n);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    Xoshiro256ss shard_id_rng(derive_seed(seed, shard));
    draw_redrawing(tags, index, shard * n / shards, (shard + 1) * n / shards,
                   shard_id_rng);
  }
  return TagPopulation(Distinct{}, std::move(tags));
}

TagPopulation TagPopulation::sequential(std::size_t n, std::uint64_t first) {
  std::vector<Tag> tags;
  tags.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t value = first + i;
    TagId id;
    id.words[1] = static_cast<std::uint32_t>(value >> 32);
    id.words[2] = static_cast<std::uint32_t>(value);
    tags.emplace_back(id);
  }
  return TagPopulation(Distinct{}, std::move(tags));
}

TagPopulation TagPopulation::prefix_clustered(std::size_t n,
                                              std::size_t categories,
                                              std::size_t prefix_bits,
                                              Xoshiro256ss& id_rng) {
  RFID_EXPECTS(categories >= 1);
  RFID_EXPECTS(prefix_bits <= kTagIdBits);
  // One random prefix per category; suffixes random, deduplicated.
  std::vector<TagId> prefixes;
  prefixes.reserve(categories);
  for (std::size_t c = 0; c < categories; ++c)
    prefixes.push_back(random_id(id_rng));

  std::vector<Tag> tags;
  tags.reserve(n);
  IdIndex index(n);
  while (tags.size() < n) {
    const std::size_t category = tags.size() % categories;
    TagId id = random_id(id_rng);
    for (std::size_t b = 0; b < prefix_bits; ++b)
      id.set_bit(b, prefixes[category].bit(b));
    tags.emplace_back(id);
    if (index.insert(tags, tags.size() - 1) != IdIndex::kAbsent)
      tags.pop_back();  // a repeat: redraw
  }
  return TagPopulation(Distinct{}, std::move(tags));
}

TagPopulation TagPopulation::with_random_payloads(std::size_t bits,
                                                  Xoshiro256ss& id_rng) const {
  BitVec payloads;
  for (std::size_t i = 0; i < tags_.size() * bits; ++i)
    payloads.push_back(id_rng.bernoulli(0.5));
  return with_payloads(bits, std::move(payloads));
}

TagPopulation TagPopulation::with_payloads(std::size_t bits,
                                           BitVec payloads) const {
  RFID_EXPECTS(payloads.size() == tags_.size() * bits);
  TagPopulation copy(Distinct{}, tags_);
  copy.payloads_ = std::move(payloads);
  copy.payload_bits_ = bits;
  return copy;
}

}  // namespace rfid::tags
