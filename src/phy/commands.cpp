#include "phy/commands.hpp"

#include "common/crc.hpp"
#include "common/error.hpp"

namespace rfid::phy {

namespace {

/// CRC-5 over the first `payload_bits` bits of a frame.
std::uint8_t frame_crc5(const BitVec& frame, std::size_t payload_bits) {
  std::uint32_t value = 0;
  for (std::size_t i = 0; i < payload_bits; ++i)
    value = (value << 1) | frame.bit(i);
  return crc5_c1g2(value, static_cast<unsigned>(payload_bits));
}

/// CRC-16 over the first `payload_bits` bits, byte-padded with zeros.
std::uint16_t frame_crc16(const BitVec& frame, std::size_t payload_bits) {
  std::vector<std::uint8_t> bytes((payload_bits + 7) / 8, 0);
  for (std::size_t i = 0; i < payload_bits; ++i)
    if (frame.bit(i)) bytes[i / 8] |= std::uint8_t(0x80 >> (i % 8));
  return crc16_ccitt(bytes);
}

}  // namespace

BitVec QueryRoundCommand::encode() const {
  BitVec frame;
  encode_into(frame);
  return frame;
}

void QueryRoundCommand::encode_into(BitVec& frame) const {
  RFID_EXPECTS(index_length < 32);
  frame.clear();
  frame.append_bits(kOpQueryRound, kOpcodeBits);
  frame.append_bits(index_length, 5);
  frame.append_bits(seed & 0x3FFFFu, 18);
  frame.append_bits(frame_crc5(frame, 27), 5);
  RFID_ENSURES(frame.size() == kBits);
}

std::optional<QueryRoundCommand> QueryRoundCommand::decode(
    const BitVec& frame) {
  if (frame.size() != kBits) return std::nullopt;
  if (frame.read_bits(0, kOpcodeBits) != kOpQueryRound) return std::nullopt;
  if (frame.read_bits(27, 5) != frame_crc5(frame, 27)) return std::nullopt;
  QueryRoundCommand command;
  command.index_length = static_cast<unsigned>(frame.read_bits(4, 5));
  command.seed = static_cast<std::uint32_t>(frame.read_bits(9, 18));
  return command;
}

BitVec CircleCommand::encode() const {
  BitVec frame;
  frame.append_bits(kOpCircle, kOpcodeBits);
  frame.append_bits(threshold & 0x3FFFFFFFu, 30);
  frame.append_bits(modulus & 0x3FFFFFFFu, 30);
  frame.append_bits(seed & 0xFFFFFFFFFFFFull, 48);
  frame.append_bits(frame_crc16(frame, 112), 16);
  RFID_ENSURES(frame.size() == kBits);
  return frame;
}

std::optional<CircleCommand> CircleCommand::decode(const BitVec& frame) {
  if (frame.size() != kBits) return std::nullopt;
  if (frame.read_bits(0, kOpcodeBits) != kOpCircle) return std::nullopt;
  if (frame.read_bits(112, 16) != frame_crc16(frame, 112))
    return std::nullopt;
  CircleCommand command;
  command.threshold = static_cast<std::uint32_t>(frame.read_bits(4, 30));
  command.modulus = static_cast<std::uint32_t>(frame.read_bits(34, 30));
  command.seed = frame.read_bits(64, 48);
  return command;
}

}  // namespace rfid::phy
