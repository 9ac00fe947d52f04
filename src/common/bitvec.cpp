#include "common/bitvec.hpp"

namespace rfid {

BitVec::BitVec(const std::string& bits) {
  for (const char c : bits) {
    RFID_EXPECTS(c == '0' || c == '1');
    push_back(c == '1');
  }
}

void BitVec::push_back(bool value) {
  const std::size_t word = size_ / 64;
  if (word == words_.size()) words_.push_back(0);
  if (value) words_[word] |= 1ULL << (63 - size_ % 64);
  ++size_;
}

void BitVec::append_bits(std::uint64_t value, unsigned nbits) {
  // Word-at-a-time append: the value spans at most two 64-bit words. Every
  // frame encode runs through here each round, so the old bit-by-bit loop
  // was a measurable slice of the round engine's fixed cost. All shift
  // counts stay in [0, 63] (each case is annotated below) — a count of 64
  // would be undefined behaviour.
  RFID_EXPECTS(nbits <= 64);
  if (nbits == 0) return;
  if (nbits < 64) value &= ~0ULL >> (64 - nbits);
  const std::size_t word = size_ / 64;
  const unsigned room = 64u - static_cast<unsigned>(size_ % 64);
  size_ += nbits;
  words_.resize((size_ + 63) / 64, 0);
  if (nbits <= room) {
    // room - nbits is in [0, 63]: room <= 64 and nbits >= 1.
    words_[word] |= value << (room - nbits);
  } else {
    // nbits - room is in [1, 63]: nbits <= 64 and 1 <= room < nbits.
    const unsigned spill = nbits - room;
    words_[word] |= value >> spill;
    words_[word + 1] |= value << (64u - spill);
  }
}

void BitVec::append(const BitVec& other) {
  std::size_t i = 0;
  for (; i + 64 <= other.size_; i += 64) {
    append_bits(other.read_bits(i, 64), 64);
  }
  if (i < other.size_) {
    const unsigned rem = static_cast<unsigned>(other.size_ - i);
    append_bits(other.read_bits(i, rem), rem);
  }
}

std::uint64_t BitVec::read_bits(std::size_t pos, unsigned nbits) const {
  // Word-at-a-time read, mirroring append_bits. Bits beyond size_ in the
  // last word are always zero (append_bits masks its value and push_back
  // only sets bits), so reading a full word from the tail is safe.
  RFID_EXPECTS(nbits <= 64);
  RFID_EXPECTS(pos + nbits <= size_);
  if (nbits == 0) return 0;
  const std::size_t word = pos / 64;
  const unsigned offset = static_cast<unsigned>(pos % 64);
  // offset is in [0, 63]; after the shift the requested bits are MSB-
  // aligned in acc.
  std::uint64_t acc = words_[word] << offset;
  const unsigned avail = 64u - offset;
  if (nbits > avail) {
    // avail is in [1, 63] here: nbits <= 64 forces offset >= 1.
    acc |= words_[word + 1] >> avail;
  }
  return nbits == 64 ? acc : acc >> (64u - nbits);
}

std::string BitVec::to_string() const {
  std::string out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(bit(i) ? '1' : '0');
  return out;
}

}  // namespace rfid
