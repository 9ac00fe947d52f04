// Adaptive degradation protocol (ADAPT).
//
// TPP is the paper's fastest protocol on a clean channel, but its densely
// packed differential tree is the most fragile under downlink bit errors:
// one corrupted chunk strands many tags at once. ADAPT starts as TPP and
// monitors the corruption rate the session's downlink observes; when the
// analytical cost-per-delivered-tag model (analysis/degradation.hpp) says
// a simpler protocol is cheaper on the estimated channel, it falls back
// TPP -> EHPP -> HPP mid-session. The monitor and its tier live in
// AdaptivePolling::run, the one place that acts on them. The ladder is
// downgrade-only with hysteresis, and at BER 0 the policy never triggers,
// so a clean-channel ADAPT run is byte-identical to TPP.
#pragma once

#include "protocols/enhanced_hash_polling.hpp"
#include "protocols/hash_polling.hpp"
#include "protocols/protocol.hpp"
#include "protocols/tree_polling.hpp"

namespace rfid::protocols {

class AdaptivePolling final : public PollingProtocol {
 public:
  struct Config final {
    Tpp::Config tpp{};
    Ehpp::Config ehpp{};
    HppRoundConfig hpp{};
  };

  AdaptivePolling();
  explicit AdaptivePolling(Config config);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "ADAPT";
  }

  [[nodiscard]] sim::RunResult run(
      const tags::TagPopulation& population,
      const sim::SessionConfig& config) const override;

 private:
  Config config_;
  /// EHPP's circle size n*, derived once: the EHPP tier runs circles of
  /// it, and the degradation monitor prices that tier with it and with
  /// config_.ehpp's command lengths. The monitor prices TPP's and HPP's
  /// round init at config_.ehpp.round_init_bits too; all three configs
  /// default to the same 32-bit QueryRound frame.
  std::size_t ehpp_subset_size_;
};

}  // namespace rfid::protocols
