// Deterministic executor of a FaultConfig.
//
// The injector sits between the channel and the session: the session asks it
// two questions — "is this reply garbled?" (once per decode attempt) and
// "is this tag currently in the field?" (once per presence check) — and
// advances it at round boundaries so scheduled churn takes effect. All
// randomness comes from a private xoshiro stream derived from the session
// seed, never from the session's own stream; a disabled injector draws
// nothing, which is what keeps zero-fault runs byte-identical to builds
// without the fault layer.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_set>

#include "common/rng.hpp"
#include "common/tag_id.hpp"
#include "fault/fault_model.hpp"

namespace rfid::fault {

class FaultInjector final {
 public:
  /// Disabled injector: never corrupts, never hides a tag, draws nothing.
  FaultInjector() = default;

  /// Builds the injector for `config`, seeding its private RNG stream with
  /// `seed` (callers derive it from the session seed; see derive_seed).
  FaultInjector(FaultConfig config, std::uint64_t seed);

  [[nodiscard]] bool link_active() const noexcept {
    return config_.link_enabled();
  }
  [[nodiscard]] bool ber_active() const noexcept {
    return config_.ber_enabled();
  }
  [[nodiscard]] bool churn_active() const noexcept {
    return config_.churn_enabled();
  }

  /// One decode attempt: samples the configured link model (stepping the
  /// Gilbert–Elliott chain) and returns true when the reply is garbled.
  [[nodiscard]] bool corrupt_reply() noexcept;

  /// One downlink transmission of `bits` payload bits: returns true when at
  /// least one bit flips. A single aggregate draw against
  /// 1 - (1 - ber)^bits — the detect/retransmit machinery only needs the
  /// any-flip event, and one draw per frame keeps the fault stream cheap and
  /// its consumption independent of frame length. Draws nothing at BER 0.
  [[nodiscard]] bool corrupt_downlink(std::size_t bits) noexcept;

  /// Applies every churn event scheduled at or before `round` (1-based
  /// session rounds; the session calls this from begin_round).
  void advance_to_round(std::uint64_t round);

  /// False while churn currently has the tag outside the field. Tags whose
  /// first scheduled event is an arrival start absent.
  [[nodiscard]] bool present(const TagId& id) const {
    return !churn_active() || !absent_.contains(id);
  }

  // --- Reader-level faults (fleet runs; see core/deployment.hpp) -----------

  /// Arms the reader-fault process for one reader, seeding its dedicated
  /// stream with `seed` (callers derive it per reader so fleet schedules are
  /// independent of channel-fault consumption). A config with all
  /// probabilities zero never draws.
  void arm_reader_faults(const ReaderFaultConfig& config, std::uint64_t seed);

  /// One scheduling tick of the reader-fault process: at most one fault per
  /// tick, most severe wins (crash > restart > stall). Exactly one draw per
  /// armed probability per tick regardless of outcome, so the stream's
  /// consumption — and therefore every later draw — is a pure function of
  /// the tick count, never of which faults happened to fire.
  [[nodiscard]] std::optional<ReaderFaultEvent> sample_reader_fault();

 private:
  FaultConfig config_{};  ///< churn sorted by round (stable) at construction
  Xoshiro256ss fault_rng_{0};
  ReaderFaultConfig reader_faults_{};
  Xoshiro256ss reader_fault_rng_{0};
  bool bad_state_ = false;  ///< Gilbert–Elliott chain starts good
  std::size_t next_event_ = 0;
  /// Membership-only (insert/erase/contains) and never iterated, so a hash
  /// set is safe here — see the unordered-iteration rule in tools/rfidlint.
  std::unordered_set<TagId, TagIdHash> absent_;
};

}  // namespace rfid::fault
