#include "tags/population.hpp"

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

}  // namespace

TagPopulation::TagPopulation(std::vector<Tag> tags) : tags_(std::move(tags)) {
  IdIndex index(tags_.size());
  for (std::size_t i = 0; i < tags_.size(); ++i) {
    const bool unique = index.insert(tags_, i) == IdIndex::kAbsent;
    RFID_EXPECTS(unique && "duplicate tag ID in population");
  }
}

TagPopulation::TagPopulation(Distinct, std::vector<Tag> tags)
    : tags_(std::move(tags)) {}

TagPopulation TagPopulation::uniform_random(std::size_t n,
                                            Xoshiro256ss& id_rng) {
  std::vector<Tag> tags;
  tags.reserve(n);
  IdIndex index(n);
  while (tags.size() < n) {
    tags.emplace_back(random_id(id_rng));
    if (index.insert(tags, tags.size() - 1) != IdIndex::kAbsent)
      tags.pop_back();  // a repeat: redraw
  }
  return TagPopulation(Distinct{}, std::move(tags));
}

TagPopulation TagPopulation::uniform_random_sharded(std::size_t n,
                                                    std::uint64_t seed,
                                                    std::size_t shards) {
  RFID_EXPECTS(shards >= 1);
  std::vector<Tag> tags;
  tags.reserve(n);
  IdIndex index(n);
  for (std::size_t shard = 0; shard < shards; ++shard) {
    const std::size_t first = shard * n / shards;
    const std::size_t last = (shard + 1) * n / shards;
    Xoshiro256ss shard_id_rng(derive_seed(seed, shard));
    while (tags.size() < last) {
      tags.emplace_back(random_id(shard_id_rng));
      const std::size_t earlier = index.insert(tags, tags.size() - 1);
      if (earlier == IdIndex::kAbsent) continue;
      // A repeat within this shard is redrawn. Redrawing a repeat of an
      // earlier shard's ID would make this slice depend on other shards,
      // not on (seed, shard) alone, so that repeat is refused.
      RFID_EXPECTS(earlier >= first && "duplicate tag ID across shards");
      tags.pop_back();
    }
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
  std::vector<Tag> tags;
  tags.reserve(tags_.size());
  for (const Tag& tag : tags_) {
    BitVec payload;
    for (std::size_t i = 0; i < bits; ++i)
      payload.push_back(id_rng.bernoulli(0.5));
    tags.emplace_back(tag.id(), std::move(payload));
  }
  return TagPopulation(Distinct{}, std::move(tags));
}

}  // namespace rfid::tags
