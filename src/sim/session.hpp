// A polling session: one protocol execution against one tag population.
//
// The Session is the composition root of the simulation stack. It owns the
// per-run mutable state — RNG stream, channel, metrics, collected records —
// and wires them into sim::AirLoop, the one component that charges the
// clock: reader broadcasts, the CRC-framed retransmission ladder, polls,
// replies, turn-arounds and slots (protocols::RoundEngine and
// fault::RecoveryCoordinator sit above, in their own layers, and reach the
// session through its narrow surface).
//
// The Session itself keeps only the cross-cutting concerns: run lifecycle
// (rounds/circles/finish) and fault::RecoveryHost (recovery-phase
// attribution and undelivered reporting). A protocol implementation is then
// a pure algorithm over session.air(); protocol state, such as ADAPT's
// degradation tier, lives with its protocol.
// See docs/architecture.md for the layer diagram and charging rules.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "air/channel.hpp"
#include "common/rng.hpp"
#include "fault/injector.hpp"
#include "fault/recovery.hpp"
#include "sim/air_loop.hpp"
#include "sim/session_types.hpp"
#include "tags/population.hpp"

namespace rfid::sim {

class Session final : public fault::RecoveryHost {
 public:
  Session(const tags::TagPopulation& population, SessionConfig config);

  [[nodiscard]] const tags::TagPopulation& population() const noexcept {
    return *population_;
  }
  [[nodiscard]] const SessionConfig& config() const noexcept { return config_; }
  [[nodiscard]] Xoshiro256ss& protocol_rng() noexcept { return protocol_rng_; }
  [[nodiscard]] Metrics& metrics() noexcept { return metrics_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }

  // --- Air interface --------------------------------------------------------

  /// Reader broadcasts (unframed and CRC-framed) and the poll/reply/
  /// turn-around primitives (polls, frame slots, presence slots).
  [[nodiscard]] AirLoop& air() noexcept { return air_; }

  [[nodiscard]] bool framing_enabled() const noexcept {
    return config_.framing.enabled;
  }

  /// True unless a `present` filter excludes `id` or the fault plan's churn
  /// schedule currently has it outside the field (see AirLoop::is_present).
  [[nodiscard]] bool is_present(const TagId& id) const noexcept {
    return air_.is_present(id);
  }

  /// True when every singleton poll this session issues is guaranteed to
  /// succeed with fixed per-poll accounting: no framing, no reply-loss link
  /// model, no downlink BER, no churn or presence filter, no per-poll
  /// record/trace output, and no open recovery phase. Under these
  /// conditions a poll's airtime depends only on its vector length, so the
  /// round engine may replace the per-poll dispatch loop of an HPP or TPP
  /// round with one AirLoop::clean_singleton_replies call over the polls'
  /// lengths — byte-identical metrics, a fraction of the work.
  /// Recovery merely being *enabled* stays eligible: with no failures
  /// nothing is ever parked for the mop-up.
  [[nodiscard]] bool clean_poll_fast_path() const noexcept {
    return !config_.framing.enabled && !config_.keep_records &&
           config_.tracer == nullptr && config_.present == nullptr &&
           !injector_.ber_active() && !injector_.link_active() &&
           !injector_.churn_active() && !air_.in_recovery();
  }

  // --- Fault recovery (fault::RecoveryHost) ---------------------------------

  /// Records that the recovery policy abandoned `id` (budget exhausted).
  void mark_undelivered(const TagId& id) override;

  /// Redirects all phase accounting to obs::Phase::kRecovery until the
  /// matching recovery_phase_end. Driven by fault::RecoveryCoordinator::
  /// Scope — protocols never call these directly.
  void recovery_phase_begin() override { air_.set_in_recovery(true); }
  void recovery_phase_end() override { air_.set_in_recovery(false); }

  // --- Round/circle bookkeeping ---------------------------------------------

  void begin_round();
  void begin_circle();

  /// Throws ProtocolError once rounds exceed config().max_rounds; protocols
  /// call this at round start so a mis-parameterized run fails loudly.
  void check_round_budget() const;

  [[nodiscard]] RunResult finish(std::string protocol_name);

 private:
  const tags::TagPopulation* population_;
  SessionConfig config_;
  Xoshiro256ss protocol_rng_;
  air::Channel channel_;
  fault::FaultInjector injector_;
  Metrics metrics_{};
  std::vector<CollectedRecord> records_;
  std::vector<TagId> missing_ids_;
  std::vector<TagId> undelivered_ids_;
  // Borrows the members above, so it is declared (and constructed) last.
  AirLoop air_;
};

}  // namespace rfid::sim
