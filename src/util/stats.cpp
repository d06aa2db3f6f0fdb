#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

namespace pulse::util {

double mean(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  double s = 0.0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

double variance(std::span<const double> xs) noexcept {
  if (xs.size() < 2) return 0.0;
  const double m = mean(xs);
  double s = 0.0;
  for (double x : xs) s += (x - m) * (x - m);
  return s / static_cast<double>(xs.size());
}

double stddev(std::span<const double> xs) noexcept { return std::sqrt(variance(xs)); }

double coefficient_of_variation(std::span<const double> xs) noexcept {
  const double m = mean(xs);
  if (m == 0.0) {
    // A zero mean does not imply a stable series: {-1, 1} has stddev 1.
    // Report infinite relative variation instead of silently claiming
    // perfect stability (which fed pattern classification wrong numbers).
    return stddev(xs) > 0.0 ? std::numeric_limits<double>::infinity() : 0.0;
  }
  return stddev(xs) / m;
}

double percentile_of_sorted(std::span<const double> sorted, double p) noexcept {
  if (sorted.empty()) return 0.0;
  p = std::clamp(p, 0.0, 100.0);
  const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

double percentile(std::span<const double> xs, double p) {
  if (xs.empty()) return 0.0;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  return percentile_of_sorted(sorted, p);
}

std::vector<double> percentiles(std::span<const double> xs, std::span<const double> ps) {
  std::vector<double> out(ps.size(), 0.0);
  if (xs.empty()) return out;
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < ps.size(); ++i) out[i] = percentile_of_sorted(sorted, ps[i]);
  return out;
}

double min_of(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double max_of(std::span<const double> xs) noexcept {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double sum(std::span<const double> xs) noexcept {
  double s = 0.0;
  for (double x : xs) s += x;
  return s;
}

std::vector<double> minmax_normalize(std::span<const double> xs) {
  std::vector<double> out(xs.begin(), xs.end());
  minmax_normalize_inplace(out);
  return out;
}

void minmax_normalize_inplace(std::span<double> xs) noexcept {
  if (xs.empty()) return;
  const double lo = *std::min_element(xs.begin(), xs.end());
  const double hi = *std::max_element(xs.begin(), xs.end());
  if (hi != lo) {
    const double range = hi - lo;
    for (double& x : xs) x = (x - lo) / range;
  } else {
    // Equation 1, degenerate branch: X - Xmin, i.e. all zeros.
    for (double& x : xs) x = x - lo;
  }
}

IntHistogram::IntHistogram(std::size_t capacity) : counts_(capacity + 1, 0) {}

void IntHistogram::clear() noexcept {
  std::fill(counts_.begin(), counts_.end(), 0);
  overflow_ = 0;
  total_ = 0;
}

std::optional<std::size_t> IntHistogram::percentile_value(double p) const noexcept {
  const std::uint64_t in_range = total_ - overflow_;
  if (in_range == 0) return std::nullopt;
  p = std::clamp(p, 0.0, 1.0);
  // Contract (see header): the target rank is the integer
  // max(1, ceil(p * in_range)), and the scan compares integer cumulative
  // counts against it. The old float compare `(double)cum >= p * in_range`
  // loses exactness once cum exceeds 2^53 and invites bin-edge off-by-ones;
  // the integer compare is exact for every representable count.
  const double scaled = p * static_cast<double>(in_range);
  auto target = static_cast<std::uint64_t>(std::ceil(scaled));
  target = std::clamp<std::uint64_t>(target, 1, in_range);
  std::uint64_t cum = 0;
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    cum += counts_[v];
    if (cum >= target) return v;
  }
  return counts_.size() - 1;
}

void IntHistogram::merge(const IntHistogram& other) {
  const std::size_t shared = std::min(counts_.size(), other.counts_.size());
  for (std::size_t v = 0; v < shared; ++v) counts_[v] += other.counts_[v];
  std::uint64_t spilled = other.overflow_;
  for (std::size_t v = shared; v < other.counts_.size(); ++v) spilled += other.counts_[v];
  overflow_ += spilled;
  total_ += other.total_;
}

double IntHistogram::in_range_mean() const noexcept {
  const std::uint64_t in_range = total_ - overflow_;
  if (in_range == 0) return 0.0;
  double s = 0.0;
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    s += static_cast<double>(v) * static_cast<double>(counts_[v]);
  }
  return s / static_cast<double>(in_range);
}

double IntHistogram::in_range_cv() const noexcept {
  const std::uint64_t in_range = total_ - overflow_;
  if (in_range == 0) return 0.0;
  const double m = in_range_mean();
  // Bucket values are non-negative, so a zero in-range mean means every
  // in-range sample is exactly 0 — zero spread, CV 0 is correct here
  // (unlike the signed-span coefficient_of_variation above).
  if (m == 0.0) return 0.0;
  double s = 0.0;
  for (std::size_t v = 0; v < counts_.size(); ++v) {
    const double d = static_cast<double>(v) - m;
    s += d * d * static_cast<double>(counts_[v]);
  }
  return std::sqrt(s / static_cast<double>(in_range)) / m;
}

double IntHistogram::overflow_fraction() const noexcept {
  if (total_ == 0) return 0.0;
  return static_cast<double>(overflow_) / static_cast<double>(total_);
}

void RunningStats::add(double x) noexcept {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

}  // namespace pulse::util
