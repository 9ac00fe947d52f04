// Conventional polling baselines (paper Section II-B).
//
// CPP broadcasts the full 96-bit tag ID per poll — the baseline every table
// of the paper compares against. PrefixCpp is the "enhanced CPP" sketch of
// Section II-B: tags sharing a category prefix are first masked by a Select
// command, then polled with only their differential suffix bits; it helps
// only when the ID distribution actually clusters.
#pragma once

#include "protocols/protocol.hpp"

namespace rfid::protocols {

/// Conventional Polling Protocol: one bare 96-bit ID broadcast per tag.
class Cpp final : public PollingProtocol {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "CPP";
  }

  [[nodiscard]] sim::RunResult run(
      const tags::TagPopulation& population,
      const sim::SessionConfig& config) const override;
};

/// Enhanced CPP: Select-mask a shared `prefix_bits`-bit category prefix,
/// then poll each masked tag with its (96 - prefix_bits)-bit suffix.
class PrefixCpp final : public PollingProtocol {
 public:
  struct Config final {
    std::size_t prefix_bits = 32;  ///< category-ID length to mask
  };

  PrefixCpp();
  explicit PrefixCpp(Config config) : config_(config) {}

  [[nodiscard]] std::string_view name() const noexcept override {
    return "PrefixCPP";
  }

  [[nodiscard]] sim::RunResult run(
      const tags::TagPopulation& population,
      const sim::SessionConfig& config) const override;

 private:
  Config config_;
};

inline PrefixCpp::PrefixCpp() : config_(Config()) {}

}  // namespace rfid::protocols
