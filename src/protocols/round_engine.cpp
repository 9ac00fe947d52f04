#include "protocols/round_engine.hpp"

#include "common/error.hpp"
#include "common/hash.hpp"
#include "common/math_util.hpp"
#include "protocols/polling_tree.hpp"

namespace rfid::protocols {

tags::TagSoA make_devices(const sim::Session& session) {
  tags::TagSoA devices;
  devices.reserve(session.population().size());
  for (const tags::Tag& tag : session.population()) devices.push_back(&tag);
  return devices;
}

void RoundPolicy::dispatch(RoundEngine& engine, tags::TagSoA& active) {
  engine.dispatch_singletons_ascending(active);
}

// rfidlint: hotpath(round-engine-run-round)
bool RoundEngine::run_round(tags::TagSoA& active, RoundPolicy& policy) {
  if (active.empty()) return true;
  session_.begin_round();
  session_.check_round_budget();

  const RoundInit init = policy.begin_round(session_, active.size());
  if (!init.delivered) return false;
  h_ = init.index_length;

  // Tag side: every awake tag picks its index from the decoded seed. The
  // SoA's contiguous ID words feed the batched kernel; each lane computes
  // exactly the scalar tag_index_pow2 chain for its own tag, so the picks
  // are independent of the backend and its width.
  simd::hash_indices(init.seed, active.id_hi_data(), active.id_lo_data(),
                     active.slot_data(), active.size(), h_, hash_backend_);

  // Reader side: bucket the picked indices to find singletons.
  const std::size_t f = static_cast<std::size_t>(pow2(h_));
  const std::size_t n = active.size();
  std::vector<std::uint32_t>& counts = scratch_.counts;
  // rfidlint: allow(hotpath-alloc) — scratch reaches steady capacity in round 1; test_alloc_guard pins zero steady-state allocs
  counts.assign(f, 0);
  for (std::size_t i = 0; i < n; ++i) ++counts[active.slot(i)];

  if (policy.batchable_dispatch() && session_.clean_poll_fast_path()) {
    run_clean_polls(active, init.addressing);
    return true;
  }

  std::vector<std::size_t>& occupant = scratch_.occupant;
  // rfidlint: allow(hotpath-alloc) — scratch reaches steady capacity in round 1; test_alloc_guard pins zero steady-state allocs
  occupant.assign(f, 0);
  for (std::size_t i = 0; i < n; ++i) occupant[active.slot(i)] = i;

  // rfidlint: allow(hotpath-alloc) — shrinks with the active set after round 1; test_alloc_guard pins zero steady-state allocs
  scratch_.done.assign(active.size(), 0);
  scratch_.pending.clear();
  scratch_.chunk.clear();
  policy.dispatch(*this, active);

  if (recovering()) mop_up(active);
  active.compact(scratch_.done);
  return true;
}

// rfidlint: hotpath(round-engine-clean-polls)
void RoundEngine::run_clean_polls(tags::TagSoA& active,
                                  Addressing addressing) {
  // Every singleton poll deterministically succeeds (no noise, no churn,
  // no per-poll output), so a poll's airtime depends only on its vector
  // length and the whole dispatch reduces to compacting straight off the
  // histogram plus one batched accounting call. A singleton bucket holds
  // exactly one tag and exactly the singleton-bucket tags get erased, so
  // the compaction delta IS the singleton count — HPP needs no scan over
  // the f buckets. Occupant/done/pending bookkeeping is skipped — with
  // recovery enabled nothing can be parked, and mop_up over an empty
  // pending list is a no-op by contract.
  const std::size_t n = active.size();
  std::vector<std::uint8_t>& poll_bits = scratch_.poll_bits;
  const std::size_t leaves =
      addressing == Addressing::kTreeSegment ? tree_segment_lengths(n) : 0;
  active.compact_singletons(scratch_.counts, hash_backend_);
  const std::size_t singletons = n - active.size();
  if (addressing == Addressing::kTreeSegment) {
    RFID_ENSURES(leaves == singletons);
  } else {
    // At most one poll per tag; see tree_segment_lengths for why the
    // reserve is for n.
    // rfidlint: allow(hotpath-alloc) — scratch reaches steady capacity in round 1; test_alloc_guard pins zero steady-state allocs
    poll_bits.reserve(n);
    // rfidlint: allow(hotpath-alloc) — scratch reaches steady capacity in round 1; test_alloc_guard pins zero steady-state allocs
    poll_bits.assign(singletons, static_cast<std::uint8_t>(h_));
  }
  if (singletons > 0) session_.air().clean_singleton_replies(poll_bits, h_);
}

// rfidlint: hotpath(round-engine-tree-segments)
std::size_t RoundEngine::tree_segment_lengths(std::size_t n) {
  // Pass 1 — the leaves: singleton buckets in ascending index order, the
  // polling tree's pre-order leaf order. Branch-free, since about a third
  // of the buckets are leaves, at random: every bucket stores its index at
  // the next free slot and only a leaf advances it, so n + 1 slots suffice.
  // rfidlint: allow(hotpath-alloc) — scratch reaches steady capacity in round 1; test_alloc_guard pins zero steady-state allocs
  scratch_.singletons.resize(n + 1);
  std::uint32_t* const leaf = scratch_.singletons.data();
  const std::vector<std::uint32_t>& counts = scratch_.counts;
  const auto f = static_cast<std::uint32_t>(counts.size());
  std::size_t leaves = 0;
  for (std::uint32_t idx = 0; idx < f; ++idx) {
    leaf[leaves] = idx;
    leaves += counts[idx] == 1 ? 1u : 0u;
  }

  // Pass 2 — each leaf's segment length, checked against the h-bit
  // register A every listening tag maintains: the segment overwrites the
  // low k bits of A, which holds the previous leaf, and must complete
  // exactly this leaf. At most one leaf per tag. Reserving for n, not for
  // this round's leaves, keeps later rounds from growing the buffer: the
  // active count only falls during a drain, while the leaf count can rise.
  std::vector<std::uint8_t>& poll_bits = scratch_.poll_bits;
  // rfidlint: allow(hotpath-alloc) — scratch reaches steady capacity in round 1; test_alloc_guard pins zero steady-state allocs
  poll_bits.reserve(n);
  // rfidlint: allow(hotpath-alloc) — scratch reaches steady capacity in round 1; test_alloc_guard pins zero steady-state allocs
  poll_bits.resize(leaves);
  std::uint32_t previous = 0;
  bool register_ok = true;
  for (std::size_t j = 0; j < leaves; ++j) {
    const unsigned k = tree_segment_length(j == 0, previous, leaf[j], h_);
    const std::uint32_t low = (1u << k) - 1u;
    const std::uint32_t reg = (previous & ~low & (f - 1)) | (leaf[j] & low);
    register_ok &= reg == leaf[j];
    poll_bits[j] = static_cast<std::uint8_t>(k);
    previous = leaf[j];
  }
  RFID_ENSURES(register_ok);
  return leaves;
}

void RoundEngine::dispatch_singletons_ascending(tags::TagSoA& active) {
  // Broadcast singleton indices in ascending order; each poll must elicit
  // exactly one reply (the channel enforces it). A device is done when it
  // was read or detected missing; a noise-garbled reply leaves it awake.
  // Under a recovery policy failed polls are parked for the mop-up
  // instead — including timeouts, since a churned-out tag may return. A
  // framed vector that exhausts its retransmission budget abandons the tag
  // loudly when no recovery policy is there to keep retrying.
  const bool recovering = this->recovering();
  const std::vector<std::uint32_t>& counts = scratch_.counts;
  const std::vector<std::size_t>& occupant = scratch_.occupant;
  std::vector<char>& done = scratch_.done;
  const std::size_t f = counts.size();
  for (std::size_t idx = 0; idx < f; ++idx) {
    if (counts[idx] != 1) continue;
    const std::size_t i = occupant[idx];
    const tags::Tag* tag = active.tag(i);
    const bool here = session_.is_present(tag->id());
    const tags::Tag* responder = tag;
    const tags::Tag* read =
        session_.air().poll({&responder, here ? 1u : 0u}, tag, h_);
    if (read != nullptr)
      done[i] = 1;
    else if (recovering)
      scratch_.pending.push_back(i);
    else if (session_.air().last_poll_failure() ==
             sim::PollFailure::kDownlinkExhausted) {
      session_.mark_undelivered(tag->id());
      done[i] = 1;
    } else
      done[i] = here ? 0 : 1;
  }
}

void RoundEngine::mop_up(tags::TagSoA& active) {
  // Mop-up re-polls carry the full h-bit index: differential segment
  // encodings (TPP) only address tags in sorted-index order, which a retry
  // breaks, so the reader falls back to absolute addressing.
  recovery_.mop_up(
      session_, scratch_.done, scratch_.pending,
      [&](std::size_t i) { return active.tag(i)->id(); },
      [&](std::size_t i) {
        const tags::Tag* tag = active.tag(i);
        const bool here = session_.is_present(tag->id());
        const tags::Tag* responder = tag;
        return session_.air().poll({&responder, here ? 1u : 0u}, tag, h_) !=
               nullptr;
      });
}

void RoundEngine::run_rounds(tags::TagSoA& active, RoundPolicy& policy) {
  fault::RecoveryCoordinator::InitLadder ladder(
      session_.config().recovery.retry_budget);
  while (!active.empty()) {
    if (run_round(active, policy)) {
      ladder.note_success();
      continue;
    }
    // Framed round-init exhausted its budget. Retry a bounded number of
    // rounds (each already paid the full retransmission ladder), then give
    // up on everything still unread — loudly, never silently.
    if (ladder.note_failure()) abandon_active(active);
  }
}

void RoundEngine::abandon_active(tags::TagSoA& active) {
  const std::size_t n = active.size();
  for (std::size_t i = 0; i < n; ++i)
    session_.mark_undelivered(active.tag(i)->id());
  active.clear();
}

}  // namespace rfid::protocols
