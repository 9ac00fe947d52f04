// Missing-tag protocols from the paper's application domain.
//
// The paper motivates 1-bit polling with anti-theft monitoring and cites
// two ALOHA-family alternatives it builds on conceptually:
//   * TRP (Tan, Sheng, Li — ICDCS 2008, paper ref [11]): *detect* whether
//     any expected tag is missing with a target confidence, without
//     identifying which. The reader precomputes the expected slot-occupancy
//     bitmap of a frame; present tags backscatter one bit in their slots;
//     an expected-busy slot that stays silent betrays a missing tag.
//   * Bitmap identification (in the spirit of Li, Chen, Ling — MobiHoc
//     2010, paper ref [12]): *identify* every missing tag by iterating
//     frames; a tag whose precomputed slot is an expected singleton is
//     verified by one presence bit — silent means missing, busy means
//     present (and the tag sleeps); tags in expected-collision slots try
//     again next frame.
// Both let the benches compare the paper's polling approach against the
// bitmap approach on the same missing-tag task.
#pragma once

#include <unordered_set>
#include <vector>

#include "sim/session.hpp"
#include "tags/population.hpp"

namespace rfid::protocols {

/// TRP-style probabilistic missing-tag detection.
class TrustedReaderDetection final {
 public:
  struct Config final {
    double confidence = 0.99;          ///< target detection probability alpha
    double frame_factor = 1.0;         ///< f = factor * n
    std::size_t frame_command_bits = 32;
  };

  struct Report final {
    bool missing_detected = false;
    std::size_t frames_run = 0;
    sim::RunResult result;
  };

  TrustedReaderDetection() : TrustedReaderDetection(Config()) {}
  explicit TrustedReaderDetection(Config config) : config_(config) {}

  /// Number of frames needed for the configured confidence (Tan et al.'s
  /// geometric argument: one frame catches a lone missing tag in an
  /// expected-singleton slot with probability ~e^{-1/factor}), at most 256.
  [[nodiscard]] std::size_t planned_frames() const;

  /// Runs detection. `config.present` in the session decides which expected
  /// tags actually answer. Stops early on first detection.
  [[nodiscard]] Report detect(const tags::TagPopulation& expected,
                              const sim::SessionConfig& session_config) const;

 private:
  Config config_;
};

/// Polling-assisted missing-tag identification — the related-work class
/// the paper contrasts itself with ("by polling a part of tags in
/// collision slots, they can convert the useless collision slots into
/// useful singleton slots ... the polling vector during each polling still
/// adopts tedious tag IDs", Section VI). One bitmap frame verifies the
/// expected-singleton slots with presence bits; the tags stuck in
/// expected-collision slots are then polled conventionally with full 96-bit
/// IDs instead of waiting for later frames.
class PollingAssistedIdentification final {
 public:
  struct Config final {
    double frame_factor = 1.0;
    std::size_t frame_command_bits = 32;
  };

  struct Report final {
    std::vector<TagId> missing;  ///< identified missing tags, sorted
    sim::RunResult result;
  };

  PollingAssistedIdentification()
      : PollingAssistedIdentification(Config()) {}
  explicit PollingAssistedIdentification(Config config) : config_(config) {}

  [[nodiscard]] Report identify(const tags::TagPopulation& expected,
                                const sim::SessionConfig& session_config) const;

 private:
  Config config_;
};

/// Bitmap-based complete missing-tag identification.
class BitmapMissingIdentification final {
 public:
  struct Config final {
    double frame_factor = 1.0;
    std::size_t frame_command_bits = 32;
  };

  struct Report final {
    std::vector<TagId> missing;  ///< identified missing tags, sorted
    std::vector<TagId> verified; ///< tags confirmed present (unsorted)
    sim::RunResult result;
  };

  BitmapMissingIdentification() : BitmapMissingIdentification(Config()) {}
  explicit BitmapMissingIdentification(Config config) : config_(config) {}

  [[nodiscard]] Report identify(const tags::TagPopulation& expected,
                                const sim::SessionConfig& session_config) const;

 private:
  Config config_;
};

}  // namespace rfid::protocols
