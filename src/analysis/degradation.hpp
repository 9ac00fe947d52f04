// Adaptive protocol degradation: TPP -> EHPP -> HPP under corruption.
//
// Under a clean channel the paper's ordering is strict: TPP's differential
// tree (~3.44 bits/tag, Eq. 16) beats EHPP beats HPP. A corrupted downlink
// inverts it. The deciding quantity is the *atomic delivery unit*: a framed
// TPP chunk packs several tags' segments behind one CRC, so one bad frame
// burns (and on budget exhaustion strands) many tags at once, while an HPP
// poll frames a single h-bit index per tag and localizes every failure.
// EHPP sits between: subset circles shrink h, shortening frames and raising
// per-frame delivery probability, but its 128-bit circle command spans
// multiple segments that must *all* survive.
//
// This header prices the three tiers as expected downlink bits per
// *delivered* tag under a given BER and framing geometry, using the
// closed-form protocol models (hpp/ehpp/tpp_model.hpp) for the clean-channel
// payload and a truncated-geometric retransmission model for the channel.
// ADAPT's degradation monitor (protocols/adaptive_polling.cpp) calls
// select_tier() with the downlink's observed corruption estimate; the math
// is pure (no RNG, no state), so a BER-0 session computes TPP-is-cheapest
// and never perturbs the run.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace rfid::analysis {

/// Degradation ladder, best-first. Values are wire-stable: they appear in
/// obs::Event::detail for kDegrade events.
enum class PollingTier : std::uint8_t { kTpp = 0, kEhpp = 1, kHpp = 2 };

inline constexpr std::size_t kPollingTierCount = 3;

[[nodiscard]] std::string_view to_string(PollingTier tier) noexcept;

/// Downlink channel + framing geometry as the policy sees it.
struct ChannelModel final {
  double ber = 0.0;                  ///< estimated per-bit flip probability
  unsigned segment_payload_bits = 32;  ///< framing segment payload size
  unsigned max_attempts = 9;  ///< 1 + max_retransmissions per segment
};

/// Delivery statistics of one framed segment attempt sequence.
struct FrameOutcome final {
  double p_deliver = 1.0;          ///< P(segment survives within budget)
  double expected_attempts = 1.0;  ///< E[attempts], truncated geometric
};

/// Per-segment outcome for a frame of `frame_bits` total on-air bits.
[[nodiscard]] FrameOutcome segment_outcome(double ber, std::size_t frame_bits,
                                           unsigned max_attempts) noexcept;

/// Expected downlink bits to push `payload_bits` through the framed channel
/// (all segments, all attempts), and the probability every segment delivers.
struct PayloadCost final {
  double expected_bits = 0.0;
  double p_deliver = 1.0;
};
[[nodiscard]] PayloadCost framed_payload_cost(const ChannelModel& channel,
                                              std::size_t payload_bits);

/// Expected downlink bits per successfully delivered tag for `tier` over a
/// population of `n` tags. EHPP is priced as its caller runs it: circles of
/// `ehpp_subset_size` tags (n* >= 1, which the caller derives once), each
/// opened by a `circle_command_bits` command. Every tier pays
/// `round_init_bits` per round. Infinity when the channel cannot deliver at
/// all.
[[nodiscard]] double tier_cost_per_tag(PollingTier tier, std::size_t n,
                                       const ChannelModel& channel,
                                       std::size_t ehpp_subset_size,
                                       double circle_command_bits = 128.0,
                                       double round_init_bits = 32.0);

/// The policy: cheapest tier at or below `current` on the ladder
/// (downgrade-only — re-upgrading mid-session would re-pay TPP's stranded
/// rounds), requiring the winner to beat the current tier by `hysteresis`
/// (> 1) so estimate noise cannot oscillate the session. Tiers are priced
/// as in tier_cost_per_tag.
[[nodiscard]] PollingTier select_tier(PollingTier current, std::size_t n,
                                      const ChannelModel& channel,
                                      std::size_t ehpp_subset_size,
                                      double circle_command_bits = 128.0,
                                      double round_init_bits = 32.0,
                                      double hysteresis = 1.05);

}  // namespace rfid::analysis
