// Enhanced HPP (EHPP), paper Section III-D.
//
// HPP's vector grows like log2(n); EHPP flattens it by splitting the
// population into subsets of the Theorem-1-optimal size n* and running HPP
// over one subset per "circle". Subset selection uses the paper's
// probability variant: the circle command carries <f, F, r>; a tag joins the
// circle iff H(r, id) mod F < f, so the expected subset size is
// n_remaining * f / F and no assumption on the ID distribution is needed.
//
// Per the paper's simulation setting (Section V-B) the circle command
// (128 bits) and the 32-bit per-round HPP initialization are counted into
// the reported vector length w.
#pragma once

#include "fault/recovery.hpp"
#include "phy/commands.hpp"
#include "protocols/hash_polling.hpp"
#include "protocols/protocol.hpp"
#include "protocols/round_engine.hpp"

namespace rfid::protocols {

class Ehpp final : public PollingProtocol {
 public:
  struct Config final {
    /// l_c: the <f, F, r> circle frame (128 bits, as in Section V-B).
    std::size_t circle_command_bits = phy::CircleCommand::kBits;
    /// Per-HPP-round <h, r> cost (32-bit QueryRound frame).
    std::size_t round_init_bits = phy::QueryRoundCommand::kBits;
    /// Subset size n*; 0 derives the optimum from the analytical model for
    /// the configured l_c and init cost.
    std::size_t subset_size = 0;
    /// F of the circle command: a power of two that fits the frame's
    /// 30-bit field, so tags test H(r, id) mod F < f with a mask.
    std::uint64_t selection_modulus = 1u << 20;
  };

  Ehpp();
  explicit Ehpp(Config config);

  [[nodiscard]] std::string_view name() const noexcept override {
    return "EHPP";
  }

  [[nodiscard]] sim::RunResult run(
      const tags::TagPopulation& population,
      const sim::SessionConfig& config) const override;

  /// The subset size a run with this configuration uses, derived once at
  /// construction.
  [[nodiscard]] std::size_t effective_subset_size() const noexcept {
    return subset_size_;
  }

 private:
  Config config_;
  std::size_t subset_size_;
};

/// One EHPP circle (circle command, membership selection, HPP rounds over
/// the joined subset — or plain HPP when `active` is already at most
/// `subset_target`, which drains it and ends the run). Factored out of
/// Ehpp::run so the adaptive protocol can interleave circles with
/// degradation decisions. The HPP rounds inside the circle run on `engine`
/// (whose recovery coordinator spans the whole run: a tag's retry budget is
/// a per-run quantity no matter which subset it lands in). Returns false
/// when the framed circle command exhausted its retransmission budget — no
/// tag learned <f, F, r> and the circle never formed.
bool run_ehpp_circle(sim::Session& session, RoundEngine& engine,
                     tags::TagSoA& active, const Ehpp::Config& config,
                     std::size_t subset_target);

}  // namespace rfid::protocols
