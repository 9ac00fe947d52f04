// Unit tests for tag and population generation.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_set>
#include <utility>

#include "common/error.hpp"
#include "tags/id_index.hpp"
#include "tags/population.hpp"

namespace rfid::tags {
namespace {

/// 64-bit FNV-1a over every ID's bytes, most significant first, in
/// population order: pins both the IDs and the order they were drawn in.
std::uint64_t id_digest(const TagPopulation& pop) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Tag& tag : pop)
    for (const std::uint32_t word : tag.id().words)
      for (int shift = 24; shift >= 0; shift -= 8) {
        h ^= (word >> shift) & 0xFFu;
        h *= 0x100000001b3ULL;
      }
  return h;
}

TEST(Tag, ReplyPayloadUsesStoredPrefix) {
  Tag tag(TagId::from_hex("000000000000000000000001"), BitVec("10110"));
  EXPECT_EQ(tag.reply_payload(3).to_string(), "101");
  EXPECT_EQ(tag.reply_payload(5).to_string(), "10110");
}

TEST(Tag, ReplyPayloadDerivedWhenStoredTooShort) {
  const TagId id = TagId::from_hex("000000000000000000000002");
  Tag tag(id, BitVec("1"));
  EXPECT_EQ(tag.reply_payload(16), derived_payload(id, 16));
}

TEST(Tag, DerivedPayloadDeterministicAndIdDependent) {
  const TagId a = TagId::from_hex("000000000000000000000003");
  const TagId b = TagId::from_hex("000000000000000000000004");
  EXPECT_EQ(derived_payload(a, 32), derived_payload(a, 32));
  EXPECT_FALSE(derived_payload(a, 32) == derived_payload(b, 32));
}

TEST(Tag, DerivedPayloadPrefixConsistent) {
  // Asking for fewer bits must yield a prefix of the longer derivation.
  const TagId id = TagId::from_hex("00000000000000000000000a");
  const BitVec long_payload = derived_payload(id, 100);
  const BitVec short_payload = derived_payload(id, 40);
  for (std::size_t i = 0; i < 40; ++i)
    EXPECT_EQ(short_payload.bit(i), long_payload.bit(i));
}

TEST(Population, UniformRandomHasRequestedSizeAndUniqueIds) {
  Xoshiro256ss rng(1);
  const auto pop = TagPopulation::uniform_random(5000, rng);
  EXPECT_EQ(pop.size(), 5000u);
  std::unordered_set<TagId, TagIdHash> ids;
  for (const Tag& tag : pop) ids.insert(tag.id());
  EXPECT_EQ(ids.size(), 5000u);
}

TEST(Population, UniformRandomIsSeedDeterministic) {
  Xoshiro256ss rng1(42), rng2(42);
  const auto a = TagPopulation::uniform_random(100, rng1);
  const auto b = TagPopulation::uniform_random(100, rng2);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_EQ(a[i].id(), b[i].id());
}

TEST(Population, EmptyPopulationAllowed) {
  Xoshiro256ss rng(1);
  EXPECT_EQ(TagPopulation::uniform_random(0, rng).size(), 0u);
  EXPECT_TRUE(TagPopulation::sequential(0).empty());
}

TEST(Population, SequentialIdsIncrement) {
  const auto pop = TagPopulation::sequential(10, 5);
  EXPECT_EQ(pop[0].id().to_hex(), "000000000000000000000005");
  EXPECT_EQ(pop[9].id().to_hex(), "00000000000000000000000e");
}

TEST(Population, SequentialCrossesWordBoundary) {
  const auto pop = TagPopulation::sequential(2, 0xFFFFFFFFULL);
  EXPECT_EQ(pop[0].id().to_hex(), "0000000000000000ffffffff");
  EXPECT_EQ(pop[1].id().to_hex(), "000000000000000100000000");
}

TEST(Population, DuplicateIdsRejected) {
  std::vector<Tag> tags;
  tags.emplace_back(TagId::from_hex("000000000000000000000001"));
  tags.emplace_back(TagId::from_hex("000000000000000000000001"));
  EXPECT_THROW(TagPopulation{std::move(tags)}, ContractViolation);

  // The same ID at the first and last of 10 000 positions.
  Xoshiro256ss rng(8);
  const auto base = TagPopulation::uniform_random(10000, rng);
  std::vector<Tag> wide(base.begin(), base.end());
  wide.back() = wide.front();
  EXPECT_THROW(TagPopulation{std::move(wide)}, ContractViolation);
}

/// Two distinct IDs whose fold64() agree: a = {X >> 32, X, 0} folds to X,
/// and so does b = {(X ^ G) >> 32, X ^ G, 1}, since lo = 1 folds in as G.
std::pair<TagId, TagId> fold64_twins() {
  constexpr std::uint64_t kX = 0x0123456789abcdefULL;
  constexpr std::uint64_t kG = 0x9e3779b97f4a7c15ULL;
  TagId a, b;
  a.words = {static_cast<std::uint32_t>(kX >> 32),
             static_cast<std::uint32_t>(kX), 0};
  b.words = {static_cast<std::uint32_t>((kX ^ kG) >> 32),
             static_cast<std::uint32_t>(kX ^ kG), 1};
  return {a, b};
}

TEST(Population, ComparesFullIdsNotFolds) {
  const auto [a, b] = fold64_twins();
  ASSERT_NE(a, b);
  ASSERT_EQ(a.fold64(), b.fold64());  // a fold64-keyed table would refuse b
  const TagPopulation pop(std::vector<Tag>{Tag(a), Tag(b)});
  EXPECT_EQ(pop.size(), 2u);
  EXPECT_THROW(TagPopulation(std::vector<Tag>{Tag(a), Tag(b), Tag(a)}),
               ContractViolation);
}

TEST(IdIndex, InsertOfPresentIdReturnsEarlierPosition) {
  // The cross-shard branch of uniform_random_sharded rests on this: random
  // 96-bit IDs never repeat across shards, so it is tested here directly.
  const auto [a, b] = fold64_twins();
  const std::vector<Tag> tags{Tag(a), Tag(b), Tag(a), Tag(b)};
  IdIndex index(tags.size());
  EXPECT_EQ(index.insert(tags, 0), IdIndex::kAbsent);
  EXPECT_EQ(index.insert(tags, 1), IdIndex::kAbsent);
  EXPECT_EQ(index.insert(tags, 2), 0u);
  EXPECT_EQ(index.insert(tags, 3), 1u);
  EXPECT_EQ(index.find(tags, a), 0u);
  EXPECT_EQ(index.find(tags, b), 1u);
  EXPECT_EQ(index.find(tags, TagId{}), IdIndex::kAbsent);
}

TEST(IdIndex, RejectsInsertsBeyondCapacity) {
  const std::vector<Tag> tags{Tag(TagId::from_hex("000000000000000000000001")),
                              Tag(TagId::from_hex("000000000000000000000002"))};
  IdIndex index(1);
  EXPECT_EQ(index.insert(tags, 0), IdIndex::kAbsent);
  EXPECT_THROW(index.insert(tags, 1), ContractViolation);
}

TEST(Population, PrefixClusteredSharesCategoryPrefix) {
  Xoshiro256ss rng(3);
  constexpr std::size_t kPrefixBits = 32;
  const auto pop = TagPopulation::prefix_clustered(400, 4, kPrefixBits, rng);
  ASSERT_EQ(pop.size(), 400u);
  // Collect distinct prefixes; must be exactly the category count.
  std::unordered_set<std::uint32_t> prefixes;
  for (const Tag& tag : pop) prefixes.insert(tag.id().words[0]);
  EXPECT_EQ(prefixes.size(), 4u);
}

TEST(Population, PrefixClusteredIdsStillUnique) {
  Xoshiro256ss rng(4);
  const auto pop = TagPopulation::prefix_clustered(1000, 2, 48, rng);
  std::unordered_set<TagId, TagIdHash> ids;
  for (const Tag& tag : pop) ids.insert(tag.id());
  EXPECT_EQ(ids.size(), 1000u);
}

TEST(Population, WithRandomPayloadsAttachesCorrectLength) {
  Xoshiro256ss rng(5);
  const auto base = TagPopulation::uniform_random(50, rng);
  const auto with = base.with_random_payloads(16, rng);
  ASSERT_EQ(with.size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_EQ(with[i].id(), base[i].id());
    EXPECT_EQ(with[i].stored_payload().size(), 16u);
  }
}

TEST(Population, PayloadBitsAreBalanced) {
  Xoshiro256ss rng(6);
  const auto pop =
      TagPopulation::uniform_random(500, rng).with_random_payloads(32, rng);
  std::size_t ones = 0;
  for (const Tag& tag : pop)
    for (std::size_t b = 0; b < 32; ++b) ones += tag.stored_payload().bit(b);
  EXPECT_NEAR(double(ones) / (500.0 * 32.0), 0.5, 0.03);
}

// --- Pinned factory output -------------------------------------------------
// Every seeded result downstream (golden runs, deployment digests, bench
// digests) starts from these IDs, so each factory's output is pinned as a
// digest of its IDs in order. A change to how IDs are deduplicated must
// redraw at exactly the same points and keep every digest.

TEST(PopulationPinned, UniformRandom) {
  const std::pair<std::size_t, std::uint64_t> cases[] = {
      {1, 0xbde97e25c422ce63ULL},
      {1000, 0x4b121a75df7eb5eaULL},
      {100000, 0x5914244a4274d401ULL}};
  for (const auto& [n, digest] : cases) {
    Xoshiro256ss rng(17);
    const auto pop = TagPopulation::uniform_random(n, rng);
    ASSERT_EQ(pop.size(), n);
    EXPECT_EQ(id_digest(pop), digest) << "n=" << n;
  }
}

TEST(PopulationPinned, UniformRandomSharded) {
  const std::pair<std::size_t, std::uint64_t> cases[] = {
      {1, 0xc4405696036490cdULL},
      {3, 0x5c893bb0651b7936ULL},
      {8, 0x785bcffd5d082991ULL}};
  for (const auto& [shards, digest] : cases) {
    const auto pop = TagPopulation::uniform_random_sharded(100000, 23, shards);
    ASSERT_EQ(pop.size(), 100000u);
    EXPECT_EQ(id_digest(pop), digest) << "shards=" << shards;
  }
}

TEST(PopulationPinned, PrefixClusteredRedrawOrder) {
  // 90 of 96 bits are the category prefix, so each category has only 64
  // possible IDs and collecting 60 of them takes about 170 draws, most of
  // them repeats: the digest pins the order in which repeats are redrawn.
  Xoshiro256ss rng(29);
  const auto pop = TagPopulation::prefix_clustered(120, 2, 90, rng);
  ASSERT_EQ(pop.size(), 120u);
  EXPECT_EQ(id_digest(pop), 0xe9429ee28f47a323ULL);
}

TEST(PopulationPinned, OneShardReadsTheUniformRandomStream) {
  // One shard draws from derive_seed(seed, 0) exactly as uniform_random
  // draws from a stream seeded the same way.
  constexpr std::uint64_t kSeed = 31;
  Xoshiro256ss rng(derive_seed(kSeed, 0));
  const auto serial = TagPopulation::uniform_random(5000, rng);
  const auto sharded = TagPopulation::uniform_random_sharded(5000, kSeed, 1);
  ASSERT_EQ(sharded.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    ASSERT_EQ(sharded[i].id(), serial[i].id()) << "i=" << i;
}

}  // namespace
}  // namespace rfid::tags
