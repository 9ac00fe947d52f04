// Tree-based Polling Protocol (TPP), paper Section IV.
//
// TPP removes the redundancy HPP leaves on the air: consecutive singleton
// indices share prefixes that HPP broadcasts repeatedly. Each round the
// reader (1) has tags pick h-bit indices with h chosen so the load factor
// n_i / 2^h lies in [ln2, 2 ln2) — the singleton-maximizing setting of
// Eq. (15); (2) builds the binary polling tree over the singleton indices;
// (3) broadcasts the tree's pre-order segments. Every tag maintains an h-bit
// register A and overwrites its last k bits with each received k-bit
// segment; a tag replies when A equals its own index. Since all tags apply
// identical updates, A is common knowledge — the simulator models it as one
// shared register plus a per-tag comparison, which is exactly the physical
// behaviour.
//
// Only singleton indices ever appear as completed register values (collision
// indices are not leaves of the tree), so every segment elicits exactly one
// reply — the channel enforces this each poll.
#pragma once

#include "fault/recovery.hpp"
#include "phy/commands.hpp"
#include "protocols/hash_polling.hpp"
#include "protocols/protocol.hpp"
#include "protocols/round_engine.hpp"

namespace rfid::protocols {

class Tpp final : public PollingProtocol {
 public:
  struct Config final {
    /// Cost of the <h, r> round command (32-bit QueryRound frame).
    std::size_t round_init_bits = phy::QueryRoundCommand::kBits;
    /// Build an explicit trie each round and cross-check it against the
    /// sorted-index encoding (costs time and keeps every round on the
    /// per-poll dispatch; enabled in tests).
    bool cross_check_tree = false;
    /// Optional index-length offset from the Eq. (15) optimum; non-zero
    /// values are used by the ablation bench to show the optimum is real.
    int index_length_offset = 0;
  };

  Tpp();
  explicit Tpp(Config config) : config_(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "TPP";
  }

  [[nodiscard]] sim::RunResult run(
      const tags::TagPopulation& population,
      const sim::SessionConfig& config) const override;

 private:
  Config config_;
};

inline Tpp::Tpp() : config_(Config()) {}

/// The TPP round policy: Eq. (15)-optimal index length, raw 64-bit seed,
/// and the differential polling-tree dispatch (run as one RoundEngine round
/// by Tpp::run and by ADAPT's fastest tier). It keeps nothing between
/// rounds; its round buffers are the engine's.
///
/// Both paths read the tree through RoundEngine::tree_segment_lengths. On
/// a clean channel (sim::Session::clean_poll_fast_path) the engine runs
/// the round itself: the init's Addressing::kTreeSegment tells it to walk
/// the tree and fold the polls in one batched call, so dispatch() is not
/// called. dispatch() serves the framed, noisy, churned,
/// presence-filtered, traced and record-keeping runs, and every round of
/// a run that cross-checks the tree.
///
/// With the session's framing layer on, the pre-order tree is packed into
/// CRC-framed chunks of at most segment_payload_bits; each chunk opens with
/// the absolute h-bit index of its first leaf (a resync point — honest
/// extra cost against the Eq. 16 bound) so an undeliverable chunk strands
/// only its own tags, never the rest of the round. Without framing, a
/// BER-corrupted segment desynchronizes the shared register and strands
/// every tag after the flip point — the failure mode the regression test in
/// tests/test_polling_tree.cpp demonstrates.
class TppRoundPolicy final : public RoundPolicy {
 public:
  explicit TppRoundPolicy(Tpp::Config config) noexcept : config_(config) {}

  RoundInit begin_round(sim::Session& session,
                        std::size_t active_count) override;
  void dispatch(RoundEngine& engine, tags::TagSoA& active) override;

  /// The engine's clean-round fast path reproduces this dispatch, except
  /// for the per-round trie cross-check, which only dispatch() runs.
  [[nodiscard]] bool batchable_dispatch() const noexcept override {
    return !config_.cross_check_tree;
  }

 private:
  Tpp::Config config_;
};

}  // namespace rfid::protocols
