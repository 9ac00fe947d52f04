#include "analysis/degradation.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "analysis/hpp_model.hpp"
#include "analysis/tpp_model.hpp"
#include "common/error.hpp"
#include "phy/framing.hpp"

namespace rfid::analysis {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Closed-form payload lengths are real-valued; the channel model frames
/// integer bit counts.
std::size_t payload_bits_of(double bits) noexcept {
  return static_cast<std::size_t>(std::max(1LL, std::llround(bits)));
}

/// Expected downlink bits per delivered tag for an HPP execution over n
/// tags: every poll frames one tag's vector independently, so a corrupted
/// frame costs exactly one tag's retransmissions.
double hpp_cost(std::size_t n, const ChannelModel& channel,
                double round_init_bits) {
  const HppPrediction predict = hpp_predict(n);
  const PayloadCost vector =
      framed_payload_cost(channel, payload_bits_of(predict.avg_vector_bits));
  if (vector.p_deliver <= 0.0) return kInf;
  const PayloadCost init =
      framed_payload_cost(channel, payload_bits_of(round_init_bits));
  return vector.expected_bits / vector.p_deliver +
         predict.expected_rounds * init.expected_bits /
             static_cast<double>(n);
}

/// TPP packs several tags' differential segments into one framed chunk
/// (resynced with an absolute h-bit index), so one bad chunk burns — and on
/// exhaustion strands — every tag in it.
double tpp_cost(std::size_t n, const ChannelModel& channel,
                double round_init_bits) {
  const unsigned h = tpp_optimal_index_length(n);
  const double w = tpp_predict_w(n);
  const double chunk_payload =
      static_cast<double>(std::max<unsigned>(channel.segment_payload_bits, h));
  // One resync index, then differential segments fill the rest.
  const double tags_per_chunk =
      1.0 + std::max(0.0, (chunk_payload - static_cast<double>(h))) /
                std::max(1.0, w);
  const PayloadCost chunk =
      framed_payload_cost(channel, payload_bits_of(chunk_payload));
  if (chunk.p_deliver <= 0.0) return kInf;
  const PayloadCost init =
      framed_payload_cost(channel, payload_bits_of(round_init_bits));
  // Round structure mirrors HPP's (same load-factor recursion), so reuse its
  // expected round count for the init amortization.
  const double rounds = hpp_predict(n).expected_rounds;
  return chunk.expected_bits / (tags_per_chunk * chunk.p_deliver) +
         rounds * init.expected_bits / static_cast<double>(n);
}

/// EHPP: subset circles of n_sub tags shrink the in-circle index length
/// (cheaper, shorter frames than HPP over n) but prepay a multi-segment
/// circle command whose segments must all survive.
double ehpp_cost(std::size_t n, const ChannelModel& channel, std::size_t n_sub,
                 double circle_command_bits, double round_init_bits) {
  RFID_EXPECTS(n_sub >= 1);
  if (n <= n_sub) return hpp_cost(n, channel, round_init_bits);
  const double in_circle = hpp_cost(n_sub, channel, round_init_bits);
  const PayloadCost command =
      framed_payload_cost(channel, payload_bits_of(circle_command_bits));
  if (command.p_deliver <= 0.0 || !std::isfinite(in_circle)) return kInf;
  return in_circle + command.expected_bits /
                         (static_cast<double>(n_sub) * command.p_deliver);
}

}  // namespace

std::string_view to_string(PollingTier tier) noexcept {
  switch (tier) {
    case PollingTier::kTpp:
      return "TPP";
    case PollingTier::kEhpp:
      return "EHPP";
    case PollingTier::kHpp:
      return "HPP";
  }
  return "?";
}

FrameOutcome segment_outcome(double ber, std::size_t frame_bits,
                             unsigned max_attempts) noexcept {
  RFID_EXPECTS(max_attempts >= 1);
  if (ber <= 0.0 || frame_bits == 0) return {1.0, 1.0};
  if (ber >= 1.0) return {0.0, static_cast<double>(max_attempts)};
  const double p_clean =
      std::pow(1.0 - ber, static_cast<double>(frame_bits));
  const double q_all =
      std::pow(1.0 - p_clean, static_cast<double>(max_attempts));
  FrameOutcome out;
  out.p_deliver = 1.0 - q_all;
  // E[min(Geometric(p), A)] = (1 - (1-p)^A) / p; -> A as p -> 0.
  out.expected_attempts = p_clean < 1e-12
                              ? static_cast<double>(max_attempts)
                              : out.p_deliver / p_clean;
  return out;
}

PayloadCost framed_payload_cost(const ChannelModel& channel,
                                std::size_t payload_bits) {
  RFID_EXPECTS(channel.segment_payload_bits >= 1);
  PayloadCost cost;
  std::size_t remaining = payload_bits;
  while (remaining > 0) {
    const std::size_t seg =
        std::min<std::size_t>(remaining, channel.segment_payload_bits);
    const std::size_t frame_bits = seg + phy::kSegmentOverheadBits;
    const FrameOutcome outcome =
        segment_outcome(channel.ber, frame_bits, channel.max_attempts);
    cost.expected_bits +=
        outcome.expected_attempts * static_cast<double>(frame_bits);
    cost.p_deliver *= outcome.p_deliver;
    remaining -= seg;
  }
  return cost;
}

double tier_cost_per_tag(PollingTier tier, std::size_t n,
                         const ChannelModel& channel,
                         std::size_t ehpp_subset_size,
                         double circle_command_bits, double round_init_bits) {
  if (n == 0) return 0.0;
  switch (tier) {
    case PollingTier::kTpp:
      return tpp_cost(n, channel, round_init_bits);
    case PollingTier::kEhpp:
      return ehpp_cost(n, channel, ehpp_subset_size, circle_command_bits,
                       round_init_bits);
    case PollingTier::kHpp:
      return hpp_cost(n, channel, round_init_bits);
  }
  return kInf;
}

PollingTier select_tier(PollingTier current, std::size_t n,
                        const ChannelModel& channel,
                        std::size_t ehpp_subset_size,
                        double circle_command_bits, double round_init_bits,
                        double hysteresis) {
  RFID_EXPECTS(hysteresis >= 1.0);
  if (n == 0) return current;
  const auto cost_of = [&](PollingTier tier) {
    return tier_cost_per_tag(tier, n, channel, ehpp_subset_size,
                             circle_command_bits, round_init_bits);
  };
  const double current_cost = cost_of(current);
  PollingTier best = current;
  double best_cost = current_cost;
  // Downgrade-only: consider tiers strictly below `current` on the ladder.
  for (std::size_t t = static_cast<std::size_t>(current) + 1;
       t < kPollingTierCount; ++t) {
    const auto tier = static_cast<PollingTier>(t);
    const double cost = cost_of(tier);
    if (cost < best_cost) {
      best = tier;
      best_cost = cost;
    }
  }
  if (best == current) return current;
  // The winner must clear the hysteresis margin; an unusable current tier
  // (infinite cost) always yields.
  if (!std::isfinite(current_cost)) return best;
  return best_cost * hysteresis < current_cost ? best : current;
}

}  // namespace rfid::analysis
