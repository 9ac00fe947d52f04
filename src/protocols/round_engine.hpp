// The shared round engine of the hash-polling family.
//
// HPP, EHPP and TPP (and ADAPT, which switches between them) all run the
// same round skeleton: broadcast a round-init command carrying <h, seed>,
// have every awake tag pick an h-bit index, bucket the picked indices to
// find the singletons, dispatch polls to them, mop up failures under the
// recovery policy, and compact the active list. Before this engine existed
// each protocol carried its own copy of that loop; now the per-protocol
// variation is expressed as a RoundPolicy — how <h, seed> are chosen and
// broadcast, and how the singleton set is dispatched (ascending singleton
// polls for HPP/EHPP, the differential polling tree for TPP) — while the
// engine owns the skeleton. Its round buffers live in a RoundScratch that
// every round overwrites, so steady-state rounds allocate nothing and
// engines that run one after another can share one scratch.
//
// The active population lives in a structure-of-arrays view (tags::TagSoA)
// so the tag-side index pick runs as one batched kernel over contiguous ID
// words (common/simd.hpp; AVX-512/AVX2 behind a scalar reference). On top of
// that, rounds whose polls cannot fail (sim::Session::clean_poll_fast_path)
// skip the per-poll dispatch machinery entirely, for HPP and TPP alike: the
// engine reads each singleton's vector length off the bucket histogram (h
// per HPP poll; for TPP, the tree-segment length of each leaf in ascending
// order), folds their accounting in one batched call, and compacts straight
// off the histogram — byte-identical results, an order of magnitude less
// work per round.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/simd.hpp"
#include "fault/recovery.hpp"
#include "sim/session.hpp"
#include "tags/soa.hpp"

namespace rfid::protocols {

/// Builds the structure-of-arrays device view for a session's whole
/// population (presence is evaluated live per poll, not snapshotted). The
/// picked slot is genuine tag-side state: it is computed from the
/// broadcast seed by the same hash the reader uses, never copied from
/// reader bookkeeping.
[[nodiscard]] tags::TagSoA make_devices(const sim::Session& session);

class RoundEngine;

/// How a round's polls address a singleton on an unframed channel.
enum class Addressing : std::uint8_t {
  /// Each poll carries the full h-bit index (HPP, the HPP rounds inside
  /// EHPP circles, ADAPT's HPP tier).
  kAbsoluteIndex,
  /// Each poll carries the differential polling-tree segment that completes
  /// its leaf (TPP, paper Section IV-C).
  kTreeSegment,
};

/// What a round-init broadcast established. `delivered` is false when the
/// framed command exhausted its retransmission budget — no tag knows
/// <index_length, seed> and the round must not run.
struct RoundInit final {
  bool delivered = true;
  unsigned index_length = 0;  ///< h: bits per picked index
  std::uint64_t seed = 0;     ///< hash seed the tags decoded
  /// Lets the engine's clean-round fast path price each poll's vector
  /// without calling back into the policy.
  Addressing addressing = Addressing::kAbsoluteIndex;
};

/// Per-protocol variation points of one polling round.
class RoundPolicy {
 public:
  virtual ~RoundPolicy() = default;

  /// Chooses <h, seed> for `active_count` unread tags and broadcasts the
  /// round-init command (framed or unframed). Called after the engine has
  /// opened the round (begin_round + round-budget check); this is where the
  /// protocol draws from the session RNG.
  virtual RoundInit begin_round(sim::Session& session,
                                std::size_t active_count) = 0;

  /// Polls the singleton buckets, recording outcomes through the engine's
  /// done()/pending() state. The default is the HPP dispatch: singleton
  /// indices in ascending order, each poll carrying the full h-bit index.
  virtual void dispatch(RoundEngine& engine, tags::TagSoA& active);

  /// True when, on a clean channel, this dispatch issues exactly the polls
  /// RoundInit::addressing describes (one per singleton, in ascending index
  /// order) and nothing else — the precondition for the engine's batched
  /// clean-round fast path. The HPP dispatch and TPP's differential tree
  /// both qualify; a TPP run that cross-checks its tree against the trie
  /// every round opts out.
  [[nodiscard]] virtual bool batchable_dispatch() const noexcept {
    return true;
  }
};

/// The round-scoped buffers of RoundEngine. A round sets each buffer
/// through assign/clear/resize before it reads it, so nothing carries from
/// one round to the next (only `subset` lives across rounds, for the one
/// EHPP circle that drains it). Engines that run rounds one after another
/// — core::Deployment's readers within one execution shard — can therefore
/// share one scratch, whose capacity peaks at the largest round any of
/// them ran. Two engines must never run rounds on one scratch at once.
struct RoundScratch final {
  /// Per-index pick counts (size 2^h), every round.
  std::vector<std::uint32_t> counts;
  /// The per-poll dispatch's bookkeeping: bucket occupants, done flags and
  /// the device indices parked for the recovery mop-up.
  std::vector<std::size_t> occupant;
  std::vector<char> done;
  std::vector<std::size_t> pending;
  /// The polling tree's leaves, in ascending index order, at the front
  /// (the TPP walk, RoundEngine::tree_segment_lengths).
  std::vector<std::uint32_t> singletons;
  /// TPP's framed tree chunks.
  std::vector<std::size_t> chunk;
  /// Per-poll vector lengths in dispatch order: each leaf's segment after
  /// the TPP walk, each poll's h after a clean HPP round.
  std::vector<std::uint8_t> poll_bits;
  /// EHPP's circle members: run_ehpp_circle splits into it and drains it.
  tags::TagSoA subset;
};

class RoundEngine final {
 public:
  /// Both references are borrowed and must outlive the engine. The engine
  /// owns its scratch, so one instance spanning a whole protocol run pays
  /// the scratch capacity once (in the first round) and reuses it.
  RoundEngine(sim::Session& session,
              fault::RecoveryCoordinator& recovery) noexcept
      : session_(session), recovery_(recovery), scratch_(owned_.emplace()) {}
  /// Runs its rounds on the borrowed `scratch`, which must outlive the
  /// engine and serve no other engine while this one runs a round.
  RoundEngine(sim::Session& session, fault::RecoveryCoordinator& recovery,
              RoundScratch& scratch) noexcept
      : session_(session), recovery_(recovery), scratch_(scratch) {}

  /// A copy would borrow the original's owned scratch, which dies with it.
  RoundEngine(const RoundEngine&) = delete;
  RoundEngine& operator=(const RoundEngine&) = delete;

  /// Runs one complete round over `active` (round bookkeeping, policy init,
  /// batched tag-side index pick, singleton sift, dispatch, recovery
  /// mop-up, compaction). Devices that were read or abandoned are erased
  /// from `active`. Returns false when the round-init broadcast was
  /// undeliverable — the round did not run and the caller decides between
  /// retrying and abandoning (see run_rounds).
  bool run_round(tags::TagSoA& active, RoundPolicy& policy);

  /// Runs rounds until `active` drains, retrying undeliverable round-init
  /// broadcasts through the bounded InitLadder and abandoning everything
  /// still unread — loudly, never silently — once it is exhausted.
  void run_rounds(tags::TagSoA& active, RoundPolicy& policy);

  /// The terminal give-up-loudly outcome when the downlink cannot even
  /// deliver protocol commands: every still-active device is reported via
  /// sim::Session::mark_undelivered and `active` is cleared.
  void abandon_active(tags::TagSoA& active);

  /// Selects the kernel backend for the batched index pick. Any backend
  /// produces identical picks (the lane->tag rule in common/simd.hpp);
  /// the bench pins kScalar to measure the per-width speedup.
  void set_hash_backend(simd::Backend backend) noexcept {
    hash_backend_ = backend;
  }
  [[nodiscard]] simd::Backend hash_backend() const noexcept {
    return hash_backend_;
  }

  // --- Surface for RoundPolicy::dispatch implementations --------------------

  [[nodiscard]] sim::Session& session() noexcept { return session_; }
  [[nodiscard]] fault::RecoveryCoordinator& recovery() noexcept {
    return recovery_;
  }
  /// True when failed polls are parked for the mop-up instead of being
  /// rescheduled silently.
  [[nodiscard]] bool recovering() const noexcept { return recovery_.active(); }
  /// h of the running round.
  [[nodiscard]] unsigned index_length() const noexcept { return h_; }
  /// Last device index that picked each bucket; meaningful where the
  /// count is 1 (the singleton's occupant). Filled only on the per-poll
  /// dispatch path — the clean-round fast path never consults it (nor
  /// done() and pending()).
  [[nodiscard]] const std::vector<std::size_t>& occupant() const noexcept {
    return scratch_.occupant;
  }
  /// done[i] != 0 once active[i] was read, detected missing, or abandoned.
  [[nodiscard]] std::vector<char>& done() noexcept { return scratch_.done; }
  /// Device indices parked for the end-of-round recovery mop-up.
  [[nodiscard]] std::vector<std::size_t>& pending() noexcept {
    return scratch_.pending;
  }
  /// The TPP walk: reads the round's polling tree off the bucket histogram
  /// of `n` tags. Returns the leaf count m, puts the leaves (the singleton
  /// buckets in ascending index order, the tree's pre-order leaf order) in
  /// the first m entries of singletons() and each leaf's segment length in
  /// poll_bits(), and checks every segment against the h-bit register each
  /// listening tag keeps. The clean-round fast path and TPP's per-poll
  /// dispatch both call it, so TPP has one segment rule.
  std::size_t tree_segment_lengths(std::size_t n);
  [[nodiscard]] const std::vector<std::uint32_t>& singletons() const noexcept {
    return scratch_.singletons;
  }
  [[nodiscard]] const std::vector<std::uint8_t>& poll_bits() const noexcept {
    return scratch_.poll_bits;
  }
  /// Round-scoped scratch for policies that chunk the dispatch (TPP's
  /// framed tree chunks). Cleared by the engine before dispatch.
  [[nodiscard]] std::vector<std::size_t>& chunk_scratch() noexcept {
    return scratch_.chunk;
  }
  /// Scratch for EHPP's circle subset: run_ehpp_circle splits the circle's
  /// members into it and drains it with run_rounds, so its capacity is
  /// paid in the first circle and reused by every later one.
  [[nodiscard]] tags::TagSoA& subset_scratch() noexcept {
    return scratch_.subset;
  }

  /// The HPP dispatch: singleton indices in ascending order, each poll
  /// carrying the full h-bit index. Shared by HPP proper, the HPP rounds
  /// inside EHPP circles, and ADAPT's degraded tier.
  void dispatch_singletons_ascending(tags::TagSoA& active);

 private:
  /// Clean-round fast path: fills the scratch's poll_bits with each
  /// singleton's vector length in dispatch order, compacts `active` off the
  /// histogram, and folds the polls' accounting in one AirLoop call.
  void run_clean_polls(tags::TagSoA& active, Addressing addressing);

  /// End-of-round mop-up: hands the parked device indices to the recovery
  /// coordinator, re-polling each with the full h_-bit absolute index
  /// (differential encodings cannot address an out-of-order retry).
  void mop_up(tags::TagSoA& active);

  sim::Session& session_;
  fault::RecoveryCoordinator& recovery_;
  unsigned h_ = 0;
  simd::Backend hash_backend_ = simd::best_backend();
  /// Engaged only by the owning constructor; scratch_ then refers to it.
  std::optional<RoundScratch> owned_;
  RoundScratch& scratch_;
};

}  // namespace rfid::protocols
