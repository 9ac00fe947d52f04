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

/// A one-tag population storing `payload`.
TagPopulation one_tag(const TagId& id, const BitVec& payload) {
  return TagPopulation(std::vector<Tag>{Tag(id)})
      .with_payloads(payload.size(), payload);
}

TEST(Tag, ReplyPayloadUsesStoredPrefix) {
  const auto pop =
      one_tag(TagId::from_hex("000000000000000000000001"), BitVec("10110"));
  EXPECT_EQ(pop.reply_payload(0, 3).to_string(), "101");
  EXPECT_EQ(pop.reply_payload(0, 5).to_string(), "10110");
}

TEST(Tag, ReplyPayloadDerivedWhenStoredTooShort) {
  const TagId id = TagId::from_hex("000000000000000000000002");
  const auto pop = one_tag(id, BitVec("1"));
  EXPECT_EQ(pop.reply_payload(0, 16), derived_payload(id, 16));
}

TEST(Population, ReplyPayloadReadsEachTagsOwnBits) {
  // 100 stored bits per tag, so tags start mid-word and a reply spans
  // three words; each reply is its tag's slice of the column.
  constexpr std::size_t kBits = 100;
  const auto base = TagPopulation::sequential(3);
  Xoshiro256ss rng(11);
  BitVec column;
  for (std::size_t i = 0; i < 3 * kBits; ++i) column.push_back(rng() & 1u);
  const auto pop = base.with_payloads(kBits, column);
  ASSERT_EQ(pop.payload_bits(), kBits);
  for (std::size_t t = 0; t < 3; ++t) {
    const BitVec reply = pop.reply_payload(t, 70);
    ASSERT_EQ(reply.size(), 70u);
    for (std::size_t b = 0; b < 70; ++b)
      EXPECT_EQ(reply.bit(b), column.bit(t * kBits + b)) << t << ":" << b;
    EXPECT_EQ(pop.reply_payload(t, kBits + 1),
              derived_payload(pop[t].id(), kBits + 1));
  }
  EXPECT_THROW((void)base.with_payloads(kBits, BitVec("1")),
               ContractViolation);
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

// --- The bulk uniqueness check ----------------------------------------------

/// `n` distinct random IDs.
std::vector<Tag> distinct_ids(std::size_t n, std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  const auto pop = TagPopulation::uniform_random(n, rng);
  return {pop.begin(), pop.end()};
}

TEST(RepeatedId, EmptyAndSingleHoldNoRepeat) {
  EXPECT_FALSE(has_repeated_id({}));
  EXPECT_FALSE(has_repeated_id(std::vector<Tag>{Tag(TagId{})}));
}

TEST(RepeatedId, Fold64TwinsAreNotARepeat) {
  // Twins hash alike, so they always share a block and a probe path, and
  // only the 96-bit compare tells them apart: alone, and among enough
  // other IDs to make several blocks.
  const auto [a, b] = fold64_twins();
  EXPECT_FALSE(has_repeated_id(std::vector<Tag>{Tag(a), Tag(b)}));
  EXPECT_TRUE(has_repeated_id(std::vector<Tag>{Tag(a), Tag(b), Tag(b)}));
  std::vector<Tag> many = distinct_ids(3 * kIdsPerBlock, 41);
  many.insert(many.begin() + kIdsPerBlock, Tag(a));
  many.push_back(Tag(b));
  EXPECT_FALSE(has_repeated_id(many));
  many.push_back(Tag(a));
  EXPECT_TRUE(has_repeated_id(many));
}

TEST(RepeatedId, FindsARepeatAtEveryEdge) {
  // Sizes below, at and past block multiples. The repeat sits at the first
  // and last positions, in the first two, in the last two, and either side
  // of the end of the first block-sized run of input.
  constexpr std::size_t kB = kIdsPerBlock;
  const std::size_t sizes[] = {2, 3, kB - 1, kB, kB + 1, 2 * kB + 3, 10000};
  for (const std::size_t n : sizes) {
    const std::vector<Tag> ids = distinct_ids(n, 43 + n);
    ASSERT_FALSE(has_repeated_id(ids)) << "n=" << n;
    std::vector<std::pair<std::size_t, std::size_t>> at{
        {0, n - 1}, {0, 1}, {n - 2, n - 1}};
    if (n > kIdsPerBlock) at.emplace_back(kIdsPerBlock - 1, kIdsPerBlock);
    for (const auto& [from, to] : at) {
      std::vector<Tag> repeated = ids;
      repeated[to] = repeated[from];
      EXPECT_TRUE(has_repeated_id(repeated))
          << "n=" << n << ", positions " << from << " and " << to;
    }
  }
}

TEST(RepeatedId, AgreesWithPositionsOfARandomRepeat) {
  Xoshiro256ss rng(47);
  for (std::uint64_t trial = 0; trial < 16; ++trial) {
    const std::size_t n = 2 + rng.below(3 * kIdsPerBlock);
    std::vector<Tag> ids = distinct_ids(n, 100 + trial);
    const std::size_t from = rng.below(n);
    const std::size_t to = rng.below(n);
    ids[to] = ids[from];
    EXPECT_EQ(has_repeated_id(ids), from != to)
        << "n=" << n << ", positions " << from << " and " << to;
  }
  // Structured IDs spread over the blocks too.
  EXPECT_FALSE(has_repeated_id(TagPopulation::sequential(50000).tags()));
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
  EXPECT_EQ(base.payload_bits(), 0u);
  // The column holds one length for every tag.
  EXPECT_EQ(with.payload_bits(), 16u);
  for (std::size_t i = 0; i < 50; ++i) EXPECT_EQ(with[i].id(), base[i].id());
}

TEST(Population, PayloadBitsAreBalanced) {
  Xoshiro256ss rng(6);
  const auto pop =
      TagPopulation::uniform_random(500, rng).with_random_payloads(32, rng);
  ASSERT_EQ(pop.payload_bits(), 32u);  // replies below read stored bits
  std::size_t ones = 0;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    const BitVec stored = pop.reply_payload(i, 32);
    for (std::size_t b = 0; b < 32; ++b) ones += stored.bit(b);
  }
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

TEST(PopulationPinned, MillionTagSharded) {
  // The drains' own call: a million tags from eight shards. At this size
  // the uniqueness check partitions the IDs into blocks.
  const auto pop = TagPopulation::uniform_random_sharded(1'000'000, 4242, 8);
  ASSERT_EQ(pop.size(), 1'000'000u);
  EXPECT_EQ(id_digest(pop), 0x3cecf3056bffcd96ULL);
}

TEST(PopulationPinned, RandomPayloadBits) {
  // Every stored payload bit in population order, then the stream's next
  // draw: pins the payload draws and how many of them were made.
  Xoshiro256ss rng(37);
  const auto pop =
      TagPopulation::uniform_random(1000, rng).with_random_payloads(32, rng);
  ASSERT_EQ(pop.payload_bits(), 32u);
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::size_t i = 0; i < pop.size(); ++i) {
    const BitVec stored = pop.reply_payload(i, 32);
    for (std::size_t b = 0; b < 32; ++b) {
      h ^= stored.bit(b) ? 1u : 0u;
      h *= 0x100000001b3ULL;
    }
  }
  EXPECT_EQ(h, 0xa312ddc7e4bc4b11ULL);
  EXPECT_EQ(rng(), 0x072166c42d0acceeULL);
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
