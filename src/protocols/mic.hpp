// Multi-hash Information Collection (MIC), Chen et al., INFOCOM 2011 — the
// state-of-the-art ALOHA-family comparator of the paper's Section V-C.
//
// Reconstructed from its published description: per frame the reader
// broadcasts an indicator vector of f slots, each entry ceil(log2(k+1))
// bits. Entry j in [1, k] declares "the tag whose j-th hash lands here and
// that has not replied yet owns this slot"; entry 0 marks the slot wasted.
// The reader builds the vector with a slot-ordered greedy that mirrors the
// tags' decoding rule exactly: a tag replies at the first slot s with
// vector[s] = j and H_j(id) mod f = s. With k = 7 hash functions the wasted
// slot fraction drops to ~13.9% (the figure MIC's authors report), at the
// price of 3 indicator bits per slot and k hash evaluations per tag — the
// dilemma the ICPP paper's related-work section calls out.
//
// SIC (single-hash information collection) is the k = 1 special case.
#pragma once

#include <string>

#include "protocols/protocol.hpp"

namespace rfid::protocols {

class Mic final : public PollingProtocol {
 public:
  struct Config final {
    unsigned num_hashes = 7;             ///< k
    double frame_factor = 1.0;           ///< f = factor * remaining tags
    std::size_t frame_command_bits = 32; ///< per-frame <f, r> command
  };

  Mic();
  explicit Mic(Config config, std::string display_name = "MIC")
      : config_(config), display_name_(std::move(display_name)) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return display_name_;
  }

  [[nodiscard]] sim::RunResult run(
      const tags::TagPopulation& population,
      const sim::SessionConfig& config) const override;

 private:
  Config config_;
  std::string display_name_;
};

/// SIC: MIC restricted to a single hash function.
[[nodiscard]] inline Mic make_sic() {
  return Mic(Mic::Config{.num_hashes = 1}, "SIC");
}

inline Mic::Mic() : Mic(Config()) {}

}  // namespace rfid::protocols
