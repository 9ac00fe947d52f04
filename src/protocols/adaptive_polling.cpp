#include "protocols/adaptive_polling.hpp"

#include <cstdint>

#include "analysis/degradation.hpp"
#include "fault/recovery.hpp"
#include "protocols/round_engine.hpp"

namespace rfid::protocols {

namespace {

/// Downlink corruption observations (framed attempts or unframed BER
/// draws) the monitor waits for before it trusts the BER estimate.
constexpr std::uint64_t kMinObservations = 16;

/// The degradation monitor: prices the tiers for `unread` tags on the
/// session's observed downlink BER, EHPP as `ehpp` runs it with circles of
/// `ehpp_subset_size`, and returns the tier the next round runs
/// (analysis::select_tier: downgrade-only, default hysteresis). A
/// downgrade bumps metrics().degradations and emits one obs kDegrade event
/// with detail = (from_tier << 8) | to_tier. Pure math, no RNG draw, so at
/// BER 0 it never perturbs the run.
analysis::PollingTier next_tier(sim::Session& session, std::size_t unread,
                                analysis::PollingTier tier,
                                const Ehpp::Config& ehpp,
                                std::size_t ehpp_subset_size) {
  const sim::AirLoop& air = session.air();
  if (air.downlink_attempts() < kMinObservations) return tier;
  const phy::FramingConfig& framing = session.config().framing;
  analysis::ChannelModel channel;
  channel.ber = air.estimated_ber();
  channel.segment_payload_bits = framing.segment_payload_bits;
  channel.max_attempts = 1 + framing.max_retransmissions;
  const analysis::PollingTier next = analysis::select_tier(
      tier, unread, channel, ehpp_subset_size,
      static_cast<double>(ehpp.circle_command_bits),
      static_cast<double>(ehpp.round_init_bits));
  if (next != tier) {
    ++session.metrics().degradations;
    const std::uint64_t detail = (static_cast<std::uint64_t>(tier) << 8) |
                                 static_cast<std::uint64_t>(next);
    if (session.config().tracer != nullptr)
      session.air().trace_event(obs::EventKind::kDegrade, 0.0, 0, 0, 0, 0.0,
                                0.0, detail);
  }
  return next;
}

}  // namespace

AdaptivePolling::AdaptivePolling() : AdaptivePolling(Config()) {}

AdaptivePolling::AdaptivePolling(Config config)
    : config_(config),
      ehpp_subset_size_(Ehpp(config.ehpp).effective_subset_size()) {}

sim::RunResult AdaptivePolling::run(const tags::TagPopulation& population,
                                    const sim::SessionConfig& config) const {
  sim::Session session(population, config);
  tags::TagSoA active = make_devices(session);
  fault::RecoveryCoordinator recovery(config.recovery);
  RoundEngine engine(session, recovery);
  TppRoundPolicy tpp_policy(config_.tpp);
  HppRoundPolicy hpp_policy(config_.hpp);

  analysis::PollingTier tier = analysis::PollingTier::kTpp;
  fault::RecoveryCoordinator::InitLadder ladder(config.recovery.retry_budget);
  while (!active.empty()) {
    bool round_ran = true;
    tier = next_tier(session, active.size(), tier, config_.ehpp,
                     ehpp_subset_size_);
    switch (tier) {
      case analysis::PollingTier::kTpp:
        round_ran = engine.run_round(active, tpp_policy);
        break;
      case analysis::PollingTier::kEhpp:
        session.check_round_budget();
        round_ran = run_ehpp_circle(session, engine, active, config_.ehpp,
                                    ehpp_subset_size_);
        break;
      case analysis::PollingTier::kHpp:
        round_ran = engine.run_round(active, hpp_policy);
        break;
    }
    if (round_ran) {
      ladder.note_success();
      continue;
    }
    // The framed init/circle command exhausted its retransmission budget;
    // same bounded give-up-loudly policy as the static protocols.
    if (ladder.note_failure()) engine.abandon_active(active);
  }
  return session.finish(std::string(name()));
}

}  // namespace rfid::protocols
