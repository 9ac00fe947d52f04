#include "tags/tag.hpp"

namespace rfid::tags {

BitVec derived_payload(const TagId& id, std::size_t bits) {
  BitVec out;
  std::uint64_t word = 0;
  unsigned available = 0;
  std::uint64_t counter = 0;
  for (std::size_t i = 0; i < bits; ++i) {
    if (available == 0) {
      word = tag_hash(0x7061796c6f616421ULL + counter++, id);
      available = 64;
    }
    out.push_back((word >> 63) & 1u);
    word <<= 1;
    --available;
  }
  return out;
}

}  // namespace rfid::tags
