#include "protocols/coded_polling.hpp"

#include <unordered_map>
#include <vector>

#include "common/hash.hpp"

namespace rfid::protocols {

namespace {

/// The 16-bit nonlinear role validator V (see the header for why a linear
/// CRC cannot serve here).
std::uint16_t validator16(const TagId& id) noexcept {
  return static_cast<std::uint16_t>(tag_hash(0xc0ded0011ULL, id));
}

/// All tags whose tag-side check makes them claim a role: their own
/// validator equals `own_v` and their recovered partner's equals
/// `partner_v`. The index narrows the scan to tags sharing the own-V bucket.
std::vector<const tags::Tag*> claimants(
    const std::unordered_multimap<std::uint16_t, const tags::Tag*>& v_index,
    const TagId& coded, std::uint16_t own_v, std::uint16_t partner_v) {
  std::vector<const tags::Tag*> out;
  auto [begin, end] = v_index.equal_range(own_v);
  for (auto it = begin; it != end; ++it) {
    const TagId partner = coded ^ it->second->id();
    if (validator16(partner) == partner_v) out.push_back(it->second);
  }
  return out;
}

}  // namespace

sim::RunResult CodedPolling::run(const tags::TagPopulation& population,
                                 const sim::SessionConfig& config) const {
  sim::Session session(population, config);
  const std::size_t n = population.size();

  // Index over the full expected population: the reader screens coded
  // frames against every ID it knows, whether or not the tag turns out to
  // be present. Actual responders are filtered by presence afterwards.
  std::unordered_multimap<std::uint16_t, const tags::Tag*> v_index;
  v_index.reserve(n);
  for (const tags::Tag& tag : population)
    v_index.emplace(validator16(tag.id()), &tag);

  const auto present_only = [&session](std::vector<const tags::Tag*> list) {
    std::erase_if(list, [&session](const tags::Tag* t) {
      return !session.is_present(t->id());
    });
    return list;
  };

  // Conventional poll with retry until read or detected missing; also the
  // recovery path for a coded reply garbled by channel noise.
  const auto poll_conventionally = [&session](const tags::Tag& t) {
    const tags::Tag* responder = &t;
    const bool present = session.is_present(t.id());
    while (session.air().poll_bare({&responder, present ? 1u : 0u}, &t,
                             kTagIdBits) == nullptr &&
           present) {
    }
  };

  // Pair consecutive tags; an odd population leaves one conventional poll.
  std::size_t i = 0;
  for (; i + 1 < n; i += 2) {
    const tags::Tag& a = population[i];
    const tags::Tag& b = population[i + 1];
    const TagId coded = a.id() ^ b.id();
    const std::uint16_t v_a = validator16(a.id());
    const std::uint16_t v_b = validator16(b.id());

    // Tag-side role resolution, computed for the whole population through
    // the CRC bucket index.
    const auto role_a = claimants(v_index, coded, v_a, v_b);
    const auto role_b = claimants(v_index, coded, v_b, v_a);

    const bool unambiguous = role_a.size() == 1 && role_b.size() == 1 &&
                             role_a.front() == &a && role_b.front() == &b;
    if (!unambiguous) {
      // A validator double-collision with a third tag would garble the coded
      // frame (and an absent pair member leaves its role unclaimed); the
      // reader detects either ahead of time and polls both conventionally.
      poll_conventionally(a);
      poll_conventionally(b);
      continue;
    }

    // Coded frame: 96 XOR bits are the polling payload (48 per tag); the
    // two validator fields are framing overhead outside the w accounting.
    session.air().broadcast_command_bits(2 * 16);
    const tags::Tag* read_a =
        session.air().poll_bare(present_only(role_a), &a, kTagIdBits);
    const tags::Tag* read_b =
        session.air().await_extra_reply(present_only(role_b), &b);
    if (read_a == nullptr && session.is_present(a.id()))
      poll_conventionally(a);
    if (read_b == nullptr && session.is_present(b.id()))
      poll_conventionally(b);
  }
  if (i < n) poll_conventionally(population[i]);
  return session.finish(std::string(name()));
}

}  // namespace rfid::protocols
