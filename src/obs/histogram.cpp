#include "obs/histogram.hpp"

#include <algorithm>
#include <stdexcept>

namespace rfid::obs {

Histogram::Histogram(std::vector<double> edges) : edges_(std::move(edges)) {
  if (edges_.size() < 2)
    throw std::invalid_argument("Histogram: need at least two bucket edges");
  for (std::size_t i = 1; i < edges_.size(); ++i)
    if (!(edges_[i - 1] < edges_[i]))
      throw std::invalid_argument(
          "Histogram: bucket edges must be strictly increasing");
  counts_.assign(edges_.size() + 1, 0);  // underflow + interior + overflow
}

Histogram Histogram::linear(double lo, double hi, std::size_t buckets) {
  if (buckets == 0 || !(lo < hi))
    throw std::invalid_argument("Histogram::linear: empty range");
  std::vector<double> edges(buckets + 1);
  const double width = (hi - lo) / static_cast<double>(buckets);
  for (std::size_t i = 0; i <= buckets; ++i)
    edges[i] = lo + width * static_cast<double>(i);
  return Histogram(std::move(edges));
}

Histogram Histogram::exponential(double lo, double ratio,
                                 std::size_t buckets) {
  if (buckets == 0 || !(lo > 0.0) || !(ratio > 1.0))
    throw std::invalid_argument(
        "Histogram::exponential: need lo > 0 and ratio > 1");
  std::vector<double> edges(buckets + 1);
  double edge = lo;
  for (std::size_t i = 0; i <= buckets; ++i, edge *= ratio) edges[i] = edge;
  return Histogram(std::move(edges));
}

void Histogram::record(double value) noexcept {
  if (count_ == 0) {
    min_ = max_ = value;
  } else {
    min_ = std::min(min_, value);
    max_ = std::max(max_, value);
  }
  ++count_;
  sum_ += value;
  // upper_bound gives the first edge > value; bucket 0 is the underflow.
  const auto it = std::upper_bound(edges_.begin(), edges_.end(), value);
  ++counts_[static_cast<std::size_t>(it - edges_.begin())];
}

double Histogram::quantile(double q) const noexcept {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(count_);
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < counts_.size(); ++b) {
    if (counts_[b] == 0) continue;
    const double before = static_cast<double>(cumulative);
    cumulative += counts_[b];
    if (static_cast<double>(cumulative) < target) continue;
    // The target rank lands in bucket b; interpolate across its span. The
    // open-ended underflow/overflow buckets fall back on the exact extremes.
    double lo = b == 0 ? min_ : edges_[b - 1];
    double hi = b == counts_.size() - 1 ? max_ : edges_[b];
    lo = std::max(lo, min_);
    hi = std::min(hi, max_);
    if (!(lo < hi)) return lo;
    const double frac =
        (target - before) / static_cast<double>(counts_[b]);
    return lo + (hi - lo) * std::clamp(frac, 0.0, 1.0);
  }
  return max_;
}

}  // namespace rfid::obs
