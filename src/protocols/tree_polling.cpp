#include "protocols/tree_polling.hpp"

#include <algorithm>
#include <span>
#include <vector>

#include "analysis/tpp_model.hpp"
#include "common/error.hpp"
#include "fault/recovery.hpp"
#include "protocols/polling_tree.hpp"

namespace rfid::protocols {

RoundInit TppRoundPolicy::begin_round(sim::Session& session,
                                      std::size_t active_count) {
  const unsigned base_h = analysis::tpp_optimal_index_length(active_count);
  const int offset_h = static_cast<int>(base_h) + config_.index_length_offset;
  // h = 0 can only resolve a lone tag; with two or more active tags it
  // would never produce a singleton, so the ablation offset is floored.
  const int min_h = active_count >= 2 ? 1 : 0;
  const unsigned h = static_cast<unsigned>(std::clamp(offset_h, min_h, 30));
  const std::uint64_t seed = session.protocol_rng()();
  if (session.framing_enabled()) {
    if (!session.air().broadcast_framed(config_.round_init_bits,
                                        /*count_in_w=*/false))
      return RoundInit{false, h, seed, Addressing::kTreeSegment};
  } else {
    session.air().broadcast_command_bits(config_.round_init_bits);
  }
  return RoundInit{true, h, seed, Addressing::kTreeSegment};
}

void TppRoundPolicy::dispatch(RoundEngine& engine, tags::TagSoA& active) {
  sim::Session& session = engine.session();
  const bool recovering = engine.recovering();
  const unsigned h = engine.index_length();
  const std::vector<std::size_t>& occupant = engine.occupant();
  std::vector<char>& done = engine.done();
  std::vector<std::size_t>& pending = engine.pending();

  // Phase 2 — the polling tree, read off the bucket histogram by the same
  // walk the clean-round fast path runs: its leaves in pre-order and each
  // leaf's segment length. The explicit trie is the reference.
  const std::size_t leaves = engine.tree_segment_lengths(active.size());
  if (leaves == 0) return;  // rare; retry with a new seed
  const std::uint32_t* const leaf = engine.singletons().data();
  const std::uint8_t* const length = engine.poll_bits().data();
  if (config_.cross_check_tree) {
    const PollingTree tree(std::span(leaf, leaves), h);
    const std::vector<TreeSegment> reference = tree.segments();
    RFID_ENSURES(reference.size() == leaves);
    std::size_t broadcast_bits = 0;
    for (std::size_t j = 0; j < leaves; ++j) {
      const unsigned k = length[j];
      RFID_ENSURES(reference[j].completed_index == leaf[j]);
      RFID_ENSURES(reference[j].length == k);
      RFID_ENSURES(reference[j].bits == (leaf[j] & ((1u << k) - 1u)));
      broadcast_bits += k;
    }
    RFID_ENSURES(broadcast_bits == tree.node_count());
  }

  if (session.framing_enabled()) {
    // Phase 3, framed — chunked tree broadcast. Each chunk restarts from
    // the absolute h-bit index of its first leaf: a resync point, so a
    // chunk that exhausts its retransmission budget strands only its own
    // tags instead of desynchronizing the rest of the round. The resync
    // bits replace that leaf's differential segment and are counted into w
    // like it would have been — honest overhead against the Eq. 16 bound.
    const std::size_t cap = std::max<std::size_t>(
        session.config().framing.segment_payload_bits, h);
    std::vector<std::size_t>& chunk = engine.chunk_scratch();
    std::size_t j = 0;
    while (j < leaves) {
      chunk.clear();
      chunk.push_back(occupant[leaf[j]]);
      std::size_t chunk_bits = h;
      std::size_t k = j + 1;
      while (k < leaves && chunk_bits + length[k] <= cap) {
        chunk_bits += length[k];
        chunk.push_back(occupant[leaf[k]]);
        ++k;
      }
      const bool delivered =
          session.air().broadcast_framed(chunk_bits, /*count_in_w=*/true);
      for (const std::size_t i : chunk) {
        const tags::Tag* tag = active.tag(i);
        if (!delivered) {
          // The whole chunk stayed corrupt through its budget: its tags
          // never saw their indices. Recovery re-polls them with absolute
          // addressing; without recovery the reader gives up loudly.
          if (recovering)
            pending.push_back(i);
          else {
            session.mark_undelivered(tag->id());
            done[i] = 1;
          }
          continue;
        }
        const bool here = session.is_present(tag->id());
        const tags::Tag* responder = tag;
        const tags::Tag* read =
            session.air().poll_slot({&responder, here ? 1u : 0u}, tag);
        if (read != nullptr)
          done[i] = 1;
        else if (recovering)
          pending.push_back(i);
        else
          done[i] = here ? 0 : 1;
      }
      j = k;
    }
  } else {
    // Phase 3, unframed — tree-based polling. Every listening tag keeps
    // the h-bit register A, and the walk checked that each segment turns
    // A into its leaf. All tags share A because the updates are
    // broadcast. That sharing is exactly why a single BER flip is
    // catastrophic here: once a segment is corrupted the common register
    // diverges from the reader's bookkeeping and every later segment of
    // the round polls an index nobody holds.
    bool desynced = false;
    for (std::size_t j = 0; j < leaves; ++j) {
      const std::size_t i = occupant[leaf[j]];
      const tags::Tag* tag = active.tag(i);
      if (desynced) {
        // Stranded: the reader transmits the segment and waits out the
        // silence; the tag (whose register is garbage) stays awake for the
        // next round or the mop-up.
        session.air().poll_unanswered(length[j]);
        if (recovering) pending.push_back(i);
        continue;
      }
      // Tag side: every awake tag compares its index with A. Tags on
      // collision indices can never match (collision indices are not
      // leaves), so the responder set is the singleton occupant.
      const bool here = session.is_present(tag->id());
      const tags::Tag* responder = tag;
      const tags::Tag* read =
          session.air().poll({&responder, here ? 1u : 0u}, tag, length[j]);
      if (read != nullptr) {
        done[i] = 1;
      } else {
        if (session.air().last_poll_failure() ==
            sim::PollFailure::kDownlinkCorrupted)
          desynced = true;
        if (recovering)
          pending.push_back(i);
        else
          done[i] = here ? 0 : 1;
      }
    }
  }
}

sim::RunResult Tpp::run(const tags::TagPopulation& population,
                        const sim::SessionConfig& config) const {
  sim::Session session(population, config);
  tags::TagSoA active = make_devices(session);
  fault::RecoveryCoordinator recovery(config.recovery);
  RoundEngine engine(session, recovery);
  TppRoundPolicy policy(config_);
  engine.run_rounds(active, policy);
  return session.finish(std::string(name()));
}

}  // namespace rfid::protocols
