// Unit tests for the bit-level containers.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "common/bitvec.hpp"
#include "common/rng.hpp"

namespace rfid {
namespace {

TEST(BitVec, StartsEmpty) {
  BitVec v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.size(), 0u);
}

TEST(BitVec, PushBackGrows) {
  BitVec v;
  v.push_back(true);
  v.push_back(false);
  v.push_back(true);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_TRUE(v.bit(0));
  EXPECT_FALSE(v.bit(1));
  EXPECT_TRUE(v.bit(2));
}

TEST(BitVec, StringConstructorRoundTrips) {
  const std::string pattern = "1011001110001111";
  BitVec v(pattern);
  EXPECT_EQ(v.to_string(), pattern);
}

TEST(BitVec, StringConstructorRejectsNonBinary) {
  EXPECT_THROW(BitVec("10x"), ContractViolation);
}

TEST(BitVec, AppendBitsIsMsbFirst) {
  BitVec v;
  v.append_bits(0b101, 3);
  EXPECT_EQ(v.to_string(), "101");
  v.append_bits(0b0110, 4);
  EXPECT_EQ(v.to_string(), "1010110");
}

TEST(BitVec, AppendBitsZeroWidthIsNoop) {
  BitVec v("11");
  v.append_bits(0xFFFF, 0);
  EXPECT_EQ(v.size(), 2u);
}

TEST(BitVec, ReadBitsInverseOfAppend) {
  BitVec v;
  v.append_bits(0xDEADBEEFCAFEULL, 48);
  EXPECT_EQ(v.read_bits(0, 48), 0xDEADBEEFCAFEULL);
  EXPECT_EQ(v.read_bits(8, 16), 0xADBEu);
}

TEST(BitVec, ReadBitsBoundsChecked) {
  BitVec v("1010");
  EXPECT_THROW((void)v.read_bits(2, 3), ContractViolation);
}

TEST(BitVec, CrossesWordBoundaries) {
  BitVec v;
  for (int i = 0; i < 130; ++i) v.push_back(i % 3 == 0);
  EXPECT_EQ(v.size(), 130u);
  for (int i = 0; i < 130; ++i) EXPECT_EQ(v.bit(std::size_t(i)), i % 3 == 0);
}

TEST(BitVec, AppendConcatenates) {
  BitVec a("110"), b("01");
  a.append(b);
  EXPECT_EQ(a.to_string(), "11001");
}

TEST(BitVec, EqualityIgnoresCapacity) {
  BitVec a, b;
  for (int i = 0; i < 70; ++i) a.push_back(true);
  for (int i = 0; i < 70; ++i) b.push_back(true);
  EXPECT_TRUE(a == b);
  b.push_back(false);
  EXPECT_FALSE(a == b);
}

TEST(BitVec, EqualityDifferentContent) {
  EXPECT_FALSE(BitVec("101") == BitVec("100"));
  EXPECT_FALSE(BitVec("101") == BitVec("1010"));
  EXPECT_TRUE(BitVec("101") == BitVec("101"));
}

TEST(BitVec, EqualityHoldsHoweverTheStringWasBuilt) {
  Xoshiro256ss rng(11);
  for (const std::size_t len : {1u, 63u, 64u, 65u, 128u, 130u}) {
    std::string bits;
    for (std::size_t i = 0; i < len; ++i)
      bits.push_back(rng.bernoulli(0.5) ? '1' : '0');
    const BitVec from_string(bits);
    BitVec pushed;
    for (const char c : bits) pushed.push_back(c == '1');
    BitVec chunked;  // append_bits in chunks of 1..64 bits
    for (std::size_t pos = 0; pos < len;) {
      const auto width = static_cast<unsigned>(
          std::min<std::size_t>(1 + rng.below(64), len - pos));
      chunked.append_bits(from_string.read_bits(pos, width), width);
      pos += width;
    }
    BitVec concatenated(bits.substr(0, len / 3));
    concatenated.append(BitVec(bits.substr(len / 3)));
    BitVec refilled(std::string(200, '1'));  // ones in every word it held
    refilled.clear();
    for (const char c : bits) refilled.push_back(c == '1');
    for (const BitVec* built : {&pushed, &chunked, &concatenated, &refilled})
      EXPECT_TRUE(*built == from_string) << len;

    std::string last_flipped = bits;
    last_flipped.back() = bits.back() == '1' ? '0' : '1';
    EXPECT_FALSE(BitVec(last_flipped) == from_string) << len;
    EXPECT_FALSE(from_string == BitVec(last_flipped)) << len;
  }
}

TEST(BitReader, SequentialReads) {
  BitVec v("1011000111");
  BitReader reader(v);
  EXPECT_EQ(reader.remaining(), 10u);
  EXPECT_TRUE(reader.read_bit());
  EXPECT_EQ(reader.read_bits(3), 0b011u);
  EXPECT_EQ(reader.read_bits(6), 0b000111u);
  EXPECT_EQ(reader.remaining(), 0u);
}

TEST(BitReader, OverreadThrows) {
  BitVec v("11");
  BitReader reader(v);
  (void)reader.read_bit();
  EXPECT_THROW((void)reader.read_bits(2), ContractViolation);
}

}  // namespace
}  // namespace rfid
