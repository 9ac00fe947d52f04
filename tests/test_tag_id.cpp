// Unit tests for the 96-bit EPC identifier type.
#include <gtest/gtest.h>

#include <unordered_set>

#include "common/tag_id.hpp"

namespace rfid {
namespace {

TEST(TagId, DefaultIsZero) {
  TagId id;
  EXPECT_EQ(id.to_hex(), "000000000000000000000000");
}

TEST(TagId, HexRoundTrip) {
  const std::string hex = "deadbeefcafe0123456789ab";
  EXPECT_EQ(TagId::from_hex(hex).to_hex(), hex);
}

TEST(TagId, FromHexAcceptsUppercase) {
  EXPECT_EQ(TagId::from_hex("DEADBEEFCAFE0123456789AB").to_hex(),
            "deadbeefcafe0123456789ab");
}

TEST(TagId, FromHexRejectsBadLength) {
  EXPECT_THROW((void)TagId::from_hex("abc"), std::invalid_argument);
  EXPECT_THROW((void)TagId::from_hex(std::string(25, '0')),
               std::invalid_argument);
}

TEST(TagId, FromHexRejectsNonHex) {
  EXPECT_THROW((void)TagId::from_hex("zzzzzzzzzzzzzzzzzzzzzzzz"),
               std::invalid_argument);
}

TEST(TagId, BitNumberingIsMsbFirst) {
  TagId id = TagId::from_hex("800000000000000000000001");
  EXPECT_TRUE(id.bit(0));
  EXPECT_FALSE(id.bit(1));
  EXPECT_FALSE(id.bit(94));
  EXPECT_TRUE(id.bit(95));
}

TEST(TagId, SetBitRoundTrips) {
  TagId id;
  for (const std::size_t pos : {0u, 13u, 31u, 32u, 63u, 64u, 95u}) {
    id.set_bit(pos, true);
    EXPECT_TRUE(id.bit(pos));
    id.set_bit(pos, false);
    EXPECT_FALSE(id.bit(pos));
  }
}

TEST(TagId, XorIsBitwise) {
  const TagId a = TagId::from_hex("ffff0000ffff0000ffff0000");
  const TagId b = TagId::from_hex("0f0f0f0f0f0f0f0f0f0f0f0f");
  EXPECT_EQ((a ^ b).to_hex(), "f0f00f0ff0f00f0ff0f00f0f");
}

TEST(TagId, XorSelfIsZero) {
  const TagId a = TagId::from_hex("123456789abcdef011223344");
  EXPECT_EQ((a ^ a), TagId{});
}

TEST(TagId, OrderingIsLexicographicOnWords) {
  const TagId small = TagId::from_hex("000000000000000000000001");
  const TagId big = TagId::from_hex("000000010000000000000000");
  EXPECT_LT(small, big);
}

TEST(TagId, Fold64DistinguishesWords) {
  TagId a = TagId::from_hex("000000000000000000000001");
  TagId b = TagId::from_hex("000000000000000100000000");
  EXPECT_NE(a.fold64(), b.fold64());
}

TEST(TagIdHash, UsableInUnorderedContainers) {
  std::unordered_set<TagId, TagIdHash> set;
  set.insert(TagId::from_hex("000000000000000000000001"));
  set.insert(TagId::from_hex("000000000000000000000002"));
  set.insert(TagId::from_hex("000000000000000000000001"));
  EXPECT_EQ(set.size(), 2u);
}

}  // namespace
}  // namespace rfid
