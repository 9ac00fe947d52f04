#include "protocols/mic.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/math_util.hpp"

namespace rfid::protocols {

namespace {

constexpr std::size_t kUnassigned = std::numeric_limits<std::size_t>::max();

struct MicDevice final {
  const tags::Tag* tag = nullptr;
  bool present = true;
  /// The device's k candidate slots for the current frame, H_j(id) mod f.
  std::vector<std::uint32_t> slots;
};

}  // namespace

sim::RunResult Mic::run(const tags::TagPopulation& population,
                        const sim::SessionConfig& config) const {
  RFID_EXPECTS(config_.num_hashes >= 1);
  RFID_EXPECTS(config_.frame_factor > 0.0);
  sim::Session session(population, config);
  const unsigned k = config_.num_hashes;
  const unsigned entry_bits = ceil_log2(k + 1);

  std::vector<MicDevice> active;
  active.reserve(population.size());
  for (const tags::Tag& tag : population) {
    MicDevice device;
    device.tag = &tag;
    device.present = session.is_present(tag.id());
    device.slots.resize(k);
    active.push_back(std::move(device));
  }

  while (!active.empty()) {
    session.begin_round();
    session.check_round_budget();

    // Frames below two slots cannot separate colliding tags; floor at two
    // whenever more than one tag remains so small frame factors stay live.
    const long long floor_slots = active.size() > 1 ? 2 : 1;
    const auto f = static_cast<std::size_t>(std::max<long long>(
        floor_slots, std::llround(config_.frame_factor *
                                  static_cast<double>(active.size()))));
    const std::uint64_t seed = session.protocol_rng()();

    // Frame command <f, r>, then the indicator vector (entry_bits per slot).
    session.air().broadcast_command_bits(config_.frame_command_bits);
    session.air().broadcast_vector_bits(f * entry_bits);

    // Tag side hash evaluation (the reader computes the same values).
    for (MicDevice& device : active)
      for (unsigned j = 0; j < k; ++j)
        device.slots[j] = static_cast<std::uint32_t>(
            tag_hash_family(seed, j, device.tag->id()) % f);

    // Reader assignment, layered as published: hash functions are applied
    // one after another. In layer j every still-unassigned tag is a
    // candidate for its slot H_j(id); an *unmarked* slot with exactly one
    // candidate is marked <j> and that tag assigned to it. Tags assigned in
    // layer j are out of the candidate pool from layer j+1 on.
    //
    // This layering is what makes the tag decoding rule — reply at the
    // smallest j with vector[H_j(id)] = j — collision-free: a slot marked
    // in layer j had exactly one layer-j candidate, and every tag still
    // unassigned at layer j that lands on a marked slot keeps it from being
    // marked in the first place. Hence every marked slot is answered by
    // exactly one tag and the waste is exactly the unmarked slots: ~13.9%
    // of the frame at k = 7 and f = n (the figure MIC's authors report).
    std::vector<unsigned> indicator(f, 0);  // 0 = unmarked (wasted)
    std::vector<std::size_t> assignment(f, kUnassigned);
    std::vector<bool> assigned(active.size(), false);
    std::vector<std::uint32_t> layer_count(f, 0);
    for (unsigned j = 0; j < k; ++j) {
      std::fill(layer_count.begin(), layer_count.end(), 0u);
      for (std::size_t i = 0; i < active.size(); ++i) {
        if (assigned[i]) continue;
        const std::uint32_t s = active[i].slots[j];
        if (indicator[s] == 0) {
          ++layer_count[s];
          if (layer_count[s] == 1) assignment[s] = i;
        }
      }
      for (std::size_t s = 0; s < f; ++s) {
        if (indicator[s] != 0) continue;
        if (layer_count[s] == 1) {
          indicator[s] = j + 1;
          assigned[assignment[s]] = true;
        } else {
          assignment[s] = kUnassigned;
        }
      }
    }

    // Tag side decoding: each tag replies at its first hash j with
    // vector[H_j(id)] = j, independently of the reader's plan.
    std::vector<std::vector<const tags::Tag*>> responders(f);
    for (std::size_t i = 0; i < active.size(); ++i) {
      for (unsigned j = 0; j < k; ++j) {
        const std::uint32_t s = active[i].slots[j];
        if (indicator[s] == j + 1) {
          if (active[i].present) responders[s].push_back(active[i].tag);
          break;
        }
      }
    }

    // Execute the frame slot by slot. MIC runs fixed-length slots, so a
    // wasted slot still occupies the full reply window (this is the
    // accounting under which the published execution times reproduce).
    std::vector<bool> resolved(active.size(), false);
    for (std::size_t s = 0; s < f; ++s) {
      if (indicator[s] == 0) {
        session.air().expect_empty_slot(responders[s], /*full_duration=*/true);
      } else {
        const std::size_t owner = assignment[s];
        const tags::Tag* expected = active[owner].tag;
        const tags::Tag* read = session.air().poll_slot(responders[s], expected);
        // Done when read or detected missing; a garbled reply leaves the
        // tag unresolved for the next frame.
        resolved[owner] = (read != nullptr || !active[owner].present);
      }
    }

    std::size_t write = 0;
    for (std::size_t i = 0; i < active.size(); ++i)
      if (!resolved[i]) {
        if (write != i) active[write] = std::move(active[i]);
        ++write;
      }
    active.resize(write);
  }
  return session.finish(std::string(name()));
}

}  // namespace rfid::protocols
