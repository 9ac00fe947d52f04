// Fixed-bucket distribution accumulator for offline trace analysis
// (examples/trace_inspect). Bucket edges are decided up front; mean, min
// and max are exact (kept outside the buckets), and quantiles are
// interpolated within the owning bucket, so a layout whose buckets are
// 1% wide keeps every quantile within 1% of the exact value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace rfid::obs {

/// Fixed-bucket histogram with exact sum/min/max side-channels.
class Histogram final {
 public:
  /// Buckets are [edges[i], edges[i+1]); values below edges.front() land in
  /// an underflow bucket, values >= edges.back() in an overflow bucket.
  /// Edges must be strictly increasing and at least two. Throws
  /// std::invalid_argument otherwise.
  explicit Histogram(std::vector<double> edges);

  /// `buckets` equal-width buckets spanning [lo, hi).
  [[nodiscard]] static Histogram linear(double lo, double hi,
                                        std::size_t buckets);

  /// Geometrically growing buckets from `lo` with the given ratio — the
  /// right shape for airtime-style heavy tails.
  [[nodiscard]] static Histogram exponential(double lo, double ratio,
                                             std::size_t buckets);

  void record(double value) noexcept;

  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] double mean() const noexcept {
    return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
  }
  [[nodiscard]] double min() const noexcept { return min_; }
  [[nodiscard]] double max() const noexcept { return max_; }

  /// Quantile estimate by linear interpolation inside the owning bucket;
  /// exact min/max clamp the extremes. q outside [0,1] is clamped.
  [[nodiscard]] double quantile(double q) const noexcept;

  [[nodiscard]] const std::vector<double>& edges() const noexcept {
    return edges_;
  }
  /// counts()[0] is the underflow bucket, counts().back() the overflow; the
  /// interior entries line up with [edges[i], edges[i+1]).
  [[nodiscard]] const std::vector<std::uint64_t>& counts() const noexcept {
    return counts_;
  }

 private:
  std::vector<double> edges_;
  std::vector<std::uint64_t> counts_;  ///< underflow + interior + overflow
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace rfid::obs
