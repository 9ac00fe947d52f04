#include "protocols/dfsa.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "protocols/hash_polling.hpp"

namespace rfid::protocols {

sim::RunResult Dfsa::run(const tags::TagPopulation& population,
                         const sim::SessionConfig& config) const {
  RFID_EXPECTS(config_.frame_factor > 0.0);
  // DFSA has no per-tag polls, so it cannot detect absent tags; a missing-tag
  // scenario would simply never terminate.
  RFID_EXPECTS(config.present == nullptr);
  sim::Session session(population, config);

  tags::TagSoA active = make_devices(session);

  // Backlog estimate for the unknown-population mode (Schoute: expected
  // 2.39 tags per collision slot at the ALOHA optimum).
  double estimated_backlog = static_cast<double>(config_.initial_frame);

  std::vector<std::vector<const tags::Tag*>> responders;
  while (!active.empty()) {
    session.begin_round();
    session.check_round_budget();

    const double sizing_base =
        config_.known_population ? static_cast<double>(active.size())
                                 : estimated_backlog;
    // Frames below two slots cannot separate colliding tags; floor at two
    // whenever more than one tag remains so small frame factors stay live.
    const long long floor_slots = active.size() > 1 ? 2 : 1;
    const auto f = static_cast<std::size_t>(std::max<long long>(
        floor_slots,
        std::llround(config_.frame_factor * sizing_base)));
    const std::uint64_t seed = session.protocol_rng()();
    session.air().broadcast_command_bits(config_.frame_command_bits);

    // Tag side: each unread tag picks its slot from the broadcast seed.
    responders.assign(f, {});
    std::vector<std::vector<std::size_t>> members(f);
    for (std::size_t i = 0; i < active.size(); ++i) {
      const tags::Tag* tag = active.tag(i);
      const auto slot =
          static_cast<std::uint32_t>(tag_hash(seed, tag->id()) % f);
      active.set_slot(i, slot);
      responders[slot].push_back(tag);
      members[slot].push_back(i);
    }

    // Walk the frame; the channel classifies each slot. Only decoded
    // singletons resolve a tag — garbled replies stay for the next frame.
    std::vector<char> done(active.size(), 0);
    std::size_t collision_slots = 0;
    for (std::size_t s = 0; s < f; ++s) {
      const air::SlotResult slot = session.air().frame_slot_aloha(responders[s]);
      collision_slots += slot.outcome == air::SlotOutcome::kCollision;
      if (slot.outcome != air::SlotOutcome::kSingleton || !slot.decoded)
        continue;
      // Identify which member was read: with the capture effect a
      // collision slot can decode as any one of its occupants.
      for (const std::size_t i : members[s]) {
        if (active.tag(i) == slot.responder) {
          done[i] = 1;
          break;
        }
      }
    }

    active.compact(done);

    // Schoute backlog estimate for the next frame; floor keeps progress
    // when a small frame happens to end with zero observed collisions.
    estimated_backlog =
        std::max(2.0, 2.39 * static_cast<double>(collision_slots));
  }
  return session.finish(std::string(name()));
}

}  // namespace rfid::protocols
