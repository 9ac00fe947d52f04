// rfidbench shared plumbing: timing, sample statistics, the correctness
// ledger and the result record every workload fills.
//
// A run measures one workload in one process. Host time is read with
// std::chrono::steady_clock from the benchmark's own code, around calls
// into the library's public API; nothing inside src/ is instrumented.
// Simulated quantities (C1G2 airtime, polling-vector bits) come from the
// library's own obs::Metrics and repeat exactly for a given --seed.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"

namespace rfidbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point from,
                                            Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Keeps `value`, and the work that produced it, from being optimized away.
inline void keep(std::uint64_t value) {
  asm volatile("" : : "r"(value) : "memory");
}

/// Timing samples of one quantity (one per iteration, tick or request).
class Samples final {
 public:
  void add(double value) { values_.push_back(value); }
  void reserve(std::size_t n) { values_.reserve(n); }
  [[nodiscard]] std::size_t count() const noexcept { return values_.size(); }
  [[nodiscard]] bool empty() const noexcept { return values_.empty(); }
  [[nodiscard]] double sum() const;
  /// Quantile at the positions Python's statistics.quantiles uses (the
  /// default "exclusive" method), clamped to the sample range.
  [[nodiscard]] double quantile(double p) const;
  [[nodiscard]] double median() const { return quantile(0.5); }

 private:
  std::vector<double> values_;
};

/// Correctness checks: every check counts as one attempt; a failed check is
/// recorded with a reason. Any failure makes the run exit nonzero.
class Checks final {
 public:
  void expect(bool ok, const std::string& what);
  /// `attempts` operations of which `failures` failed (HTTP requests).
  void count(std::uint64_t attempts, std::uint64_t failures,
             const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& failures() const noexcept {
    return failures_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;
};

struct Metric final {
  std::string name;
  std::string unit;
  double value = 0.0;
  /// Set for metrics reported as a median over samples.
  bool distribution = false;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t samples = 0;
};

/// Everything one workload run reports.
struct Result final {
  std::string workload;
  bool traced = false;
  std::vector<Metric> metrics;
  Checks checks;
  /// Every seed the run derived from --seed, by role.
  std::vector<std::pair<std::string, std::uint64_t>> seeds;
  /// Digests of folded simulation output, by what was folded.
  std::vector<std::pair<std::string, std::string>> digests;

  void add(const std::string& name, const std::string& unit, double value);
  /// Adds the median of `samples` with its quartiles and sample count.
  void add(const std::string& name, const std::string& unit,
           const Samples& samples);
  void seed(const std::string& role, std::uint64_t value);
};

struct Options final {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes and a fraction of a second per workload (--smoke).
  bool smoke = false;
};

/// Hex FNV-1a digest of the byte-stable JSON form of `metrics`.
[[nodiscard]] std::string digest(const rfid::obs::Metrics& metrics);

/// Peak resident set of this process so far, in MB (getrusage).
[[nodiscard]] double peak_rss_mb();

/// Live heap bytes (mallinfo2: arena in use plus mmapped blocks).
[[nodiscard]] std::size_t heap_bytes_in_use();

/// Heap bytes added between two heap_bytes_in_use() readings.
[[nodiscard]] inline double heap_growth(std::size_t before,
                                        std::size_t after) {
  return static_cast<double>(after > before ? after - before : 0);
}

Result run_clean_tpp(const Options& options);
Result run_churn_fleet(const Options& options);
Result run_serve_epochs(const Options& options);
Result run_paper_sweep(const Options& options);

}  // namespace rfidbench
