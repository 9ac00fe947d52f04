// Value types shared across the session stack: per-run configuration and
// the result bundle a protocol run produces.
//
// Split out of session.hpp so the lower sim layers (sim::AirLoop) and the
// composition root (sim::Session) can both depend on the configuration
// without depending on each other.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "air/channel.hpp"
#include "common/bitvec.hpp"
#include "common/tag_id.hpp"
#include "fault/fault_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "phy/c1g2.hpp"
#include "phy/framing.hpp"

namespace rfid::sim {

/// The Metrics struct lives in the obs layer so the streaming telemetry
/// path can fold it without an upward dependency on sim; sim::Metrics and
/// obs::Metrics are one type, not a copy.
using Metrics = obs::Metrics;

/// Per-run configuration shared by all protocols.
struct SessionConfig final {
  std::size_t info_bits = 1;     ///< l: payload bits collected per tag
  std::uint64_t seed = 1;        ///< master seed; identical seeds replay
  phy::C1G2Timing timing{};      ///< air-interface timing model
  bool keep_records = true;      ///< store per-tag collected payloads
  std::size_t max_rounds = 1u << 20;  ///< safety cap against livelock
  /// Tags physically in the interrogation zone; nullptr means all of them.
  /// With a subset, polls addressed to absent tags time out empty and the
  /// tag is reported missing — the paper's anti-theft use case (Section I).
  /// Not owned; must outlive the run.
  const std::unordered_set<TagId, TagIdHash>* present = nullptr;
  /// Capture effect: probability that a collision slot still decodes as
  /// the strongest single reply (a real UHF phenomenon; helps the ALOHA
  /// family, irrelevant to polling which never collides). Applies to
  /// frame_slot_aloha only.
  double capture_probability = 0.0;
  /// Trace sink receiving one typed event per air-interface action (see
  /// obs/trace.hpp). Not owned; must outlive the run. Null disables tracing
  /// entirely — the hot-path cost is a single branch on this pointer, and
  /// seeded runs stay byte-identical with or without it.
  obs::TraceSink* tracer = nullptr;
  /// Structured fault plan (burst-error link model, tag-churn schedule).
  /// Executed by a fault::FaultInjector on a dedicated RNG stream derived
  /// from `seed`; the default (disabled) plan draws nothing and leaves
  /// seeded runs byte-identical to builds without the fault layer. See
  /// docs/fault_injection.md.
  fault::FaultConfig fault{};
  /// Reader-side recovery policy (bounded re-polls, end-of-round mop-up).
  /// Honoured by the hash-polling family (HPP/EHPP/TPP); retry airtime is
  /// charged to obs::Phase::kRecovery and budget-exhausted tags land in
  /// RunResult::undelivered_ids instead of missing_ids.
  fault::RecoveryConfig recovery{};
  /// CRC-framed segmented broadcast (see phy/framing.hpp). Off by default:
  /// the unframed path is bit-identical to older builds. When enabled,
  /// polling vectors and the TPP tree travel as CRC-16-trailed segments
  /// with bounded retransmission, making downlink corruption detectable
  /// per segment instead of desynchronizing whole rounds.
  phy::FramingConfig framing{};
};

/// One collected (tag, payload) pair.
struct CollectedRecord final {
  TagId id{};
  BitVec payload{};
};

/// Outcome of a protocol run.
struct RunResult final {
  std::string protocol;
  std::size_t population = 0;
  Metrics metrics{};
  air::ChannelStats channel{};
  std::vector<CollectedRecord> records;
  std::vector<TagId> missing_ids;  ///< expected tags that never replied
  /// Tags the recovery policy gave up on (retry budget exhausted), in the
  /// order they were abandoned. Disjoint from records and missing_ids.
  std::vector<TagId> undelivered_ids;
  /// True when the run was configured with a fault plan or recovery policy;
  /// the JSON report emits the extra fault fields only in that case,
  /// keeping zero-fault output byte-identical to older builds.
  bool fault_layer = false;

  [[nodiscard]] double avg_vector_bits() const noexcept {
    return metrics.avg_vector_bits();
  }
  [[nodiscard]] double exec_time_s() const noexcept {
    return metrics.exec_time_s();
  }
};

}  // namespace rfid::sim
