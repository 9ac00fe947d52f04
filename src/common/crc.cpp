#include "common/crc.hpp"

#include <array>

namespace rfid {

namespace {
constexpr std::array<std::uint16_t, 256> make_crc16_table() {
  std::array<std::uint16_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint16_t crc = static_cast<std::uint16_t>(i << 8);
    for (int bit = 0; bit < 8; ++bit) {
      const unsigned shifted = static_cast<unsigned>(crc) << 1;
      crc = static_cast<std::uint16_t>((crc & 0x8000u) ? shifted ^ 0x1021u
                                                       : shifted);
    }
    table[i] = crc;
  }
  return table;
}
// Thread-safety audit (RFID_THREADS > 1): kCrc16Table is constexpr, so it
// is materialized at compile time into read-only storage — there is no
// runtime first-use initialization for concurrent first callers to race on.
// (A lazily-initialized `static` local or a runtime-filled table would need
// a guard here; this one must stay constexpr.) The static_assert pins the
// compile-time evaluation so a refactor that silently demotes it to runtime
// init fails to build.
constexpr auto kCrc16Table = make_crc16_table();
static_assert(kCrc16Table[1] == 0x1021 && kCrc16Table[255] == 0x1EF0,
              "CRC-16 table must be a compile-time constant");
}  // namespace

std::uint16_t crc16_ccitt(std::span<const std::uint8_t> bytes) noexcept {
  std::uint16_t crc = 0xFFFF;
  for (const std::uint8_t b : bytes) {
    crc = static_cast<std::uint16_t>((crc << 8) ^
                                     kCrc16Table[((crc >> 8) ^ b) & 0xFF]);
  }
  return crc;
}

std::uint16_t crc16_of_id(const TagId& id) noexcept {
  std::array<std::uint8_t, 12> bytes{};
  for (std::size_t w = 0; w < 3; ++w) {
    for (std::size_t b = 0; b < 4; ++b) {
      bytes[w * 4 + b] =
          static_cast<std::uint8_t>(id.words[w] >> (8 * (3 - b)));
    }
  }
  return crc16_ccitt(bytes);
}

std::uint8_t crc5_c1g2(std::uint32_t value, unsigned nbits) noexcept {
  std::uint8_t crc = 0b01001;
  for (unsigned i = 0; i < nbits; ++i) {
    const bool bit = (value >> (nbits - 1 - i)) & 1u;
    const bool msb = (crc >> 4) & 1u;
    crc = static_cast<std::uint8_t>((crc << 1) & 0x1F);
    if (bit != msb) crc ^= 0x09;
  }
  return crc;
}

}  // namespace rfid
