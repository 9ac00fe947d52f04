// Bit-level containers for broadcast payloads.
//
// Polling vectors, circle commands, MIC indicator vectors and the TPP
// polling-tree stream are all bit strings whose exact lengths drive the
// timing model, so the library manipulates them at single-bit granularity.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace rfid {

/// Growable MSB-first bit string.
class BitVec final {
 public:
  BitVec() = default;

  /// Constructs from a string of '0'/'1' characters (test convenience).
  explicit BitVec(const std::string& bits);

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] bool bit(std::size_t pos) const {
    RFID_EXPECTS(pos < size_);
    return (words_[pos / 64] >> (63 - pos % 64)) & 1u;
  }

  /// Empties the vector but keeps the word capacity, so a cleared BitVec
  /// can be refilled without reallocating (per-round command scratch).
  void clear() noexcept {
    words_.clear();
    size_ = 0;
  }

  void push_back(bool value);

  /// Appends the low `nbits` bits of `value`, most significant first.
  void append_bits(std::uint64_t value, unsigned nbits);

  /// Appends another bit vector.
  void append(const BitVec& other);

  /// Reads `nbits` bits starting at `pos` as an unsigned value (MSB first).
  [[nodiscard]] std::uint64_t read_bits(std::size_t pos, unsigned nbits) const;

  /// '0'/'1' rendering, MSB first.
  [[nodiscard]] std::string to_string() const;

  /// Compares in place: every mutator keeps `words_` at exactly the words
  /// size() needs and every bit past size() at zero, so equal strings hold
  /// equal words however they were built.
  friend bool operator==(const BitVec& a, const BitVec& b) noexcept {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

/// Sequential reader over a BitVec, used by simulated tags decoding a
/// broadcast stream.
class BitReader final {
 public:
  explicit BitReader(const BitVec& vec) noexcept : vec_(&vec) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return vec_->size() - pos_;
  }

  [[nodiscard]] bool read_bit() {
    RFID_EXPECTS(remaining() >= 1);
    return vec_->bit(pos_++);
  }

  [[nodiscard]] std::uint64_t read_bits(unsigned nbits) {
    RFID_EXPECTS(remaining() >= nbits);
    const std::uint64_t value = vec_->read_bits(pos_, nbits);
    pos_ += nbits;
    return value;
  }

 private:
  const BitVec* vec_;
  std::size_t pos_ = 0;
};

}  // namespace rfid
