#include "protocols/conventional.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "common/error.hpp"

namespace rfid::protocols {

sim::RunResult Cpp::run(const tags::TagPopulation& population,
                        const sim::SessionConfig& config) const {
  sim::Session session(population, config);
  for (const tags::Tag& target : population) {
    // Tag-side predicate: a tag answers iff the broadcast ID equals its own
    // and it is physically present. With unique IDs the responder set is at
    // most { target }; the channel still arbitrates so a duplicate-ID bug
    // would surface here. A garbled reply is simply re-polled.
    const tags::Tag* responder = &target;
    const bool present = session.is_present(target.id());
    while (session.air().poll_bare({&responder, present ? 1u : 0u}, &target,
                             kTagIdBits) == nullptr &&
           present) {
    }
  }
  return session.finish(std::string(name()));
}

sim::RunResult PrefixCpp::run(const tags::TagPopulation& population,
                              const sim::SessionConfig& config) const {
  RFID_EXPECTS(config_.prefix_bits <= kTagIdBits);
  sim::Session session(population, config);
  const std::size_t suffix_bits = kTagIdBits - config_.prefix_bits;

  // Group tags by their actual category prefix (reader knows all IDs).
  // std::map keeps groups in prefix order for deterministic traversal.
  const auto masked_prefix = [this](const TagId& id) {
    TagId out = id;
    for (std::size_t b = config_.prefix_bits; b < kTagIdBits; ++b)
      out.set_bit(b, false);
    return out;
  };
  std::map<TagId, std::vector<const tags::Tag*>> groups;
  for (const tags::Tag& tag : population)
    groups[masked_prefix(tag.id())].push_back(&tag);

  for (const auto& [prefix, members] : groups) {
    // Select command: framing overhead plus the mask itself. Tags matching
    // the mask stay active for the suffix polls; others ignore them.
    session.air().broadcast_command_bits(config_.select_overhead_bits +
                                         config_.prefix_bits);
    for (const tags::Tag* target : members) {
      const tags::Tag* responder = target;
      const bool present = session.is_present(target->id());
      while (session.air().poll_bare({&responder, present ? 1u : 0u}, target,
                               suffix_bits) == nullptr &&
             present) {
      }
    }
  }
  return session.finish(std::string(name()));
}

}  // namespace rfid::protocols
