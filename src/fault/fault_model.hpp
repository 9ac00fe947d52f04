// Structured fault models for the air interface.
//
// The paper proves its guarantees over a clean channel: every broadcast
// vector elicits exactly one decoded reply. Real C1G2 links break that
// assumption in two structured ways that a per-slot Bernoulli flip cannot
// express: decode errors arrive in *bursts* (a reader next to a conveyor or
// a forklift sees whole seconds of bad SNR), and the population itself
// *churns* — tags leave the interrogation zone mid-run and new ones arrive.
// This header declares the fault plan a session executes:
//
//   * LinkModel       — per-reply decode errors: none, i.i.d. Bernoulli, or
//                       a two-state Gilbert–Elliott burst process;
//   * ChurnEvent      — a tag departing or (re)entering the field at a
//                       configured round boundary;
//   * FaultConfig     — the declarative plan (link model + churn schedule);
//   * RecoveryConfig  — the reader-side answer: bounded re-polls with a
//                       per-tag retry budget and end-of-round mop-up passes.
//
// The plan is executed by fault::FaultInjector, which draws from a dedicated
// RNG stream derived from the session seed. A disabled plan never touches
// any RNG, so zero-fault runs stay byte-identical to a build without the
// fault layer.
#pragma once

#include <cstdint>
#include <vector>

#include "common/tag_id.hpp"

namespace rfid::fault {

/// Per-reply decode-error process applied by the injector.
enum class LinkModel : std::uint8_t {
  kNone,            ///< clean channel (the paper's assumption)
  kBernoulli,       ///< i.i.d. loss with probability `bernoulli_loss`
  kGilbertElliott,  ///< two-state burst-error channel (good/bad)
};

[[nodiscard]] const char* to_string(LinkModel model) noexcept;

/// Two-state Markov burst-error channel (Gilbert 1960, Elliott 1963). The
/// chain steps once per decode attempt; each state garbles the reply with
/// its own loss probability. Defaults model occasional multi-reply fades.
struct GilbertElliottParams final {
  double p_good_to_bad = 0.05;  ///< P(good -> bad) per decode attempt
  double p_bad_to_good = 0.40;  ///< P(bad -> good) per decode attempt
  double loss_good = 0.0;       ///< P(reply garbled | good state)
  double loss_bad = 0.75;       ///< P(reply garbled | bad state)

  /// Stationary probability of the bad state: p / (p + r).
  [[nodiscard]] double stationary_bad() const noexcept;

  /// Closed-form long-run loss rate:
  ///   (1 - pi_bad) * loss_good + pi_bad * loss_bad.
  [[nodiscard]] double stationary_loss() const noexcept;
};

/// One population-churn event, applied when the session begins the first
/// round with number >= `round` (session rounds are 1-based). A tag whose
/// *first* scheduled event is an arrival starts the run outside the field.
struct ChurnEvent final {
  enum class Kind : std::uint8_t { kDepart, kArrive };

  std::uint64_t round = 0;
  TagId id{};
  Kind kind = Kind::kDepart;
};

/// Declarative fault plan for one session. Value type: copying a
/// SessionConfig copies the plan, so parallel trials replay identically.
struct FaultConfig final {
  LinkModel link = LinkModel::kNone;
  double bernoulli_loss = 0.0;      ///< used when link == kBernoulli
  /// Used when link == kGilbertElliott.
  GilbertElliottParams gilbert_elliott{};
  /// Per-bit flip probability on the reader->tag *downlink* payload. Unlike
  /// the uplink link models above (whole-reply decode errors), this corrupts
  /// the broadcast vector itself: without framing a single flipped bit
  /// desynchronizes TPP's differential tree for the rest of the round. Drawn
  /// from the injector's private stream, so 0.0 draws nothing.
  double downlink_ber = 0.0;
  /// Churn schedule; order-insensitive (the injector sorts by round,
  /// stable). Honoured by protocols that re-evaluate presence per poll
  /// (the hash-polling family: HPP/EHPP/TPP); snapshot-based baselines see
  /// only the initial state.
  std::vector<ChurnEvent> churn;

  [[nodiscard]] bool link_enabled() const noexcept {
    return link != LinkModel::kNone;
  }
  [[nodiscard]] bool ber_enabled() const noexcept {
    return downlink_ber > 0.0;
  }
  [[nodiscard]] bool churn_enabled() const noexcept { return !churn.empty(); }
  [[nodiscard]] bool enabled() const noexcept {
    return link_enabled() || ber_enabled() || churn_enabled();
  }
};

/// Reader-level fault taxonomy for fleet runs (core/deployment.hpp).
/// These faults hit the *reader*, not the channel: the link models above
/// garble individual replies, these take a whole interrogator out.
enum class ReaderFaultKind : std::uint8_t {
  kCrash,    ///< reader dies; volatile session state lost, tags need rehoming
  kStall,    ///< latency spike: alive but missing round deadlines for a while
  kRestart,  ///< spontaneous reboot: keeps its tag assignment, loses session
};

[[nodiscard]] const char* to_string(ReaderFaultKind kind) noexcept;

/// One sampled reader fault, returned by FaultInjector::sample_reader_fault
/// at a scheduling tick. `stall_ticks` is meaningful only for kStall.
struct ReaderFaultEvent final {
  ReaderFaultKind kind = ReaderFaultKind::kCrash;
  std::uint64_t stall_ticks = 0;
};

/// Per-reader fault process, sampled once per scheduling tick from the
/// injector's dedicated reader-fault stream. All probabilities are per tick;
/// a disabled config (all zero) never draws, so fault-free fleet runs stay
/// byte-identical to builds without reader faults. When several faults fire
/// on the same tick the most severe wins: crash > restart > stall.
struct ReaderFaultConfig final {
  double crash_per_tick = 0.0;    ///< P(crash) per scheduling tick
  double stall_per_tick = 0.0;    ///< P(stall begins) per scheduling tick
  double restart_per_tick = 0.0;  ///< P(spontaneous reboot) per tick
  /// Stall duration drawn uniformly from [stall_ticks_min, stall_ticks_max].
  std::uint64_t stall_ticks_min = 2;
  std::uint64_t stall_ticks_max = 6;

  [[nodiscard]] bool enabled() const noexcept {
    return crash_per_tick > 0.0 || stall_per_tick > 0.0 ||
           restart_per_tick > 0.0;
  }
};

/// Reader-side recovery policy for the hash-polling family. When enabled,
/// a failed poll (garbled reply or timeout) parks the tag for the current
/// round's mop-up instead of abandoning it; each mop-up re-poll consumes
/// one unit of the tag's retry budget and is charged to the recovery phase
/// of the time breakdown. A tag whose budget runs out is reported in the
/// run's undelivered set — the reader gives up loudly, never silently.
struct RecoveryConfig final {
  bool enabled = false;
  /// Total recovery re-polls allowed per tag over the whole run.
  std::uint32_t retry_budget = 8;
  /// Sweeps over this round's failed tags before the next round starts.
  std::uint32_t mop_up_passes = 2;
};

}  // namespace rfid::fault
