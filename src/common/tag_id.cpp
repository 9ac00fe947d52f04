#include "common/tag_id.hpp"

#include <stdexcept>

namespace rfid {

std::string TagId::to_hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(24);
  for (const std::uint32_t word : words) {
    for (int shift = 28; shift >= 0; shift -= 4)
      out.push_back(kDigits[(word >> shift) & 0xF]);
  }
  return out;
}

TagId TagId::from_hex(const std::string& hex) {
  if (hex.size() != 24)
    throw std::invalid_argument(
        "TagId::from_hex: expected 24 hex digits, got " +
        std::to_string(hex.size()));
  TagId id;
  for (std::size_t i = 0; i < 24; ++i) {
    const char c = hex[i];
    std::uint32_t nibble = 0;
    if (c >= '0' && c <= '9')
      nibble = static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      nibble = static_cast<std::uint32_t>(c - 'a' + 10);
    else if (c >= 'A' && c <= 'F')
      nibble = static_cast<std::uint32_t>(c - 'A' + 10);
    else
      throw std::invalid_argument("TagId::from_hex: invalid hex digit");
    id.words[i / 8] |= nibble << (4 * (7 - (i % 8)));
  }
  return id;
}

}  // namespace rfid
