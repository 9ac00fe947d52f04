// Named metrics registry + the trace-consuming sink that fills it.
//
// A MetricsRegistry is a string-keyed bag of counters and histograms that
// merges exactly and associatively — the parallel trial runner folds one
// registry per trial into the series total in trial order, so aggregate
// distributions are bit-identical whether trials ran serially or across the
// pool (the same contract sim::Metrics::merge already honours).
//
// RegistrySink subscribes a registry to a session's event stream and
// maintains the standard air-interface distributions:
//   counters  events.<kind>           one per EventKind
//   histogram vector_bits_per_poll    polling-vector length per issued poll
//   histogram slot_airtime_us         airtime of each slot/interaction
//   histogram polls_per_round         successful polls per inventory round
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "obs/histogram.hpp"
#include "obs/trace.hpp"

namespace rfid::obs {

class MetricsRegistry final {
 public:
  /// Returns the named counter, creating it at zero on first use.
  [[nodiscard]] std::uint64_t& counter(const std::string& name) {
    return counters_[name];
  }
  /// Read-only lookup; 0 when the counter was never touched.
  [[nodiscard]] std::uint64_t counter_value(const std::string& name) const;

  /// Returns the named histogram, creating it with `layout`'s bucket edges
  /// on first use. Later calls ignore `layout` (the first registration
  /// wins); callers that know the histogram exists can pass {}.
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     const Histogram& layout = Histogram());
  [[nodiscard]] const Histogram* find_histogram(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters()
      const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms()
      const noexcept {
    return histograms_;
  }

  /// Exact merge: counters add; histograms merge bucket-wise (layouts must
  /// match — see Histogram::merge). Names absent on one side are adopted.
  void merge(const MetricsRegistry& other);

  /// Serializes the registry as one JSON object (counters + histograms with
  /// bucket edges/counts and summary stats).
  void write_json(std::ostream& os, int indent = 2) const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, Histogram> histograms_;
};

/// Standard bucket layouts for the built-in air-interface histograms.
[[nodiscard]] Histogram vector_bits_layout();
[[nodiscard]] Histogram slot_airtime_layout();
[[nodiscard]] Histogram polls_per_round_layout();

/// TraceSink that folds a session's events into a MetricsRegistry. The
/// registry is borrowed, not owned, so one registry can outlive many
/// sessions (or several sinks can fill disjoint registries for later merge).
class RegistrySink final : public TraceSink {
 public:
  explicit RegistrySink(MetricsRegistry& registry);

  void on_event(const Event& event) override;
  void on_finish() override;

 private:
  void close_round();

  MetricsRegistry* registry_;
  std::uint64_t polls_in_round_ = 0;
  bool round_open_ = false;
};

}  // namespace rfid::obs
