#include "core/multi_reader.hpp"

#include "common/error.hpp"

namespace rfid::core {

std::size_t reader_of(const TagId& id, std::size_t readers,
                      std::uint64_t partition_seed) {
  RFID_EXPECTS(readers >= 1);
  return reader_of_words(id_words(id), readers, partition_seed);
}

}  // namespace rfid::core
