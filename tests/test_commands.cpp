// Tests for the C1G2-style reader command codec.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "phy/commands.hpp"

namespace rfid::phy {
namespace {

TEST(QueryRoundCommand, EncodesToPaperInitLength) {
  // The paper's Section V-B charges 32 bits per HPP/TPP round init.
  const QueryRoundCommand command{13, 0x2ABCD};
  EXPECT_EQ(command.encode().size(), 32u);
  EXPECT_EQ(QueryRoundCommand::kBits, 32u);
}

TEST(QueryRoundCommand, RoundTrips) {
  Xoshiro256ss rng(1);
  for (int trial = 0; trial < 100; ++trial) {
    QueryRoundCommand command;
    command.index_length = unsigned(rng.below(32));
    command.seed = std::uint32_t(rng.below(1u << 18));
    const auto decoded = QueryRoundCommand::decode(command.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->index_length, command.index_length);
    EXPECT_EQ(decoded->seed, command.seed);
  }
}

TEST(QueryRoundCommand, CrcCatchesBitErrors) {
  const QueryRoundCommand command{7, 0x1234};
  const BitVec frame = command.encode();
  int undetected = 0;
  for (std::size_t bit = 0; bit < frame.size(); ++bit) {
    BitVec corrupted;
    for (std::size_t i = 0; i < frame.size(); ++i)
      corrupted.push_back(i == bit ? !frame.bit(i) : frame.bit(i));
    const auto decoded = QueryRoundCommand::decode(corrupted);
    // A flip in the opcode field changes the opcode (rejected); elsewhere
    // the CRC-5 must catch every single-bit error.
    undetected += decoded.has_value();
  }
  EXPECT_EQ(undetected, 0);
}

TEST(QueryRoundCommand, WrongLengthRejected) {
  BitVec frame = QueryRoundCommand{3, 9}.encode();
  frame.push_back(false);
  EXPECT_FALSE(QueryRoundCommand::decode(frame).has_value());
}

TEST(CircleCommand, EncodesToPaperCircleLength) {
  // The paper's Section V-B sets l_c = 128 bits for EHPP.
  const CircleCommand command{1000, 1u << 20, 0xDEADBEEF};
  EXPECT_EQ(command.encode().size(), 128u);
}

TEST(CircleCommand, RoundTrips) {
  Xoshiro256ss rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    CircleCommand command;
    command.threshold = std::uint32_t(rng.below(1u << 30));
    command.modulus = std::uint32_t(rng.below(1u << 30));
    command.seed = rng() & 0xFFFFFFFFFFFFull;
    const auto decoded = CircleCommand::decode(command.encode());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->threshold, command.threshold);
    EXPECT_EQ(decoded->modulus, command.modulus);
    EXPECT_EQ(decoded->seed, command.seed);
  }
}

TEST(CircleCommand, Crc16CatchesBitErrors) {
  const CircleCommand command{55, 1u << 16, 0xCAFE};
  const BitVec frame = command.encode();
  for (const std::size_t bit : {0u, 5u, 40u, 70u, 111u, 120u, 127u}) {
    BitVec corrupted;
    for (std::size_t i = 0; i < frame.size(); ++i)
      corrupted.push_back(i == bit ? !frame.bit(i) : frame.bit(i));
    EXPECT_FALSE(CircleCommand::decode(corrupted).has_value()) << bit;
  }
}

TEST(Commands, RandomFramesRejectedByCrc) {
  // Fuzz: random 32- and 128-bit frames (even with a forced valid opcode)
  // decode only when their CRC happens to validate — which for CRC-5 over
  // random payloads is 1/32 and must never mis-assign fields silently.
  Xoshiro256ss rng(9);
  int accepted32 = 0;
  for (int trial = 0; trial < 640; ++trial) {
    BitVec frame;
    frame.append_bits(kOpQueryRound, kOpcodeBits);
    frame.append_bits(rng(), 28);
    const auto decoded = QueryRoundCommand::decode(frame);
    if (decoded) {
      ++accepted32;
      // Accepted frames must round-trip to the identical bit pattern.
      EXPECT_TRUE(decoded->encode() == frame);
    }
  }
  // Expected ~640/32 = 20 accidental CRC matches.
  EXPECT_GT(accepted32, 5);
  EXPECT_LT(accepted32, 50);

  int accepted128 = 0;
  for (int trial = 0; trial < 300; ++trial) {
    BitVec frame;
    frame.append_bits(kOpCircle, kOpcodeBits);
    for (int w = 0; w < 2; ++w) frame.append_bits(rng(), 54);
    frame.append_bits(rng(), 16);
    accepted128 += CircleCommand::decode(frame).has_value();
  }
  // CRC-16: accidental acceptance ~ 300/65536, i.e. almost never.
  EXPECT_LE(accepted128, 1);
}

TEST(Commands, OpcodesAreDistinct) {
  const BitVec query = QueryRoundCommand{1, 2}.encode();
  const BitVec circle = CircleCommand{1, 2, 3}.encode();
  EXPECT_FALSE(CircleCommand::decode(query).has_value());
  EXPECT_FALSE(QueryRoundCommand::decode(circle).has_value());
}

}  // namespace
}  // namespace rfid::phy
