#pragma once
// Descriptive statistics, histograms, and the paper's Equation 1
// normalization. All functions are pure and operate on std::span so they can
// be used on raw simulation series without copies.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace pulse::util {

/// Arithmetic mean; 0 for an empty range.
[[nodiscard]] double mean(std::span<const double> xs) noexcept;

/// Population variance; 0 for fewer than 2 elements.
[[nodiscard]] double variance(std::span<const double> xs) noexcept;

/// Population standard deviation.
[[nodiscard]] double stddev(std::span<const double> xs) noexcept;

/// Coefficient of variation (stddev / mean). A zero mean with nonzero
/// spread returns +infinity — the series is maximally *unstable* relative
/// to its mean, and callers that classify stability (trace::classify's
/// gap_cv cut) must not mistake it for a perfectly steady signal. Only an
/// all-equal-to-zero (or empty) series returns 0.
/// Wild's hybrid histogram uses this to decide whether the inter-arrival
/// histogram is "representative".
[[nodiscard]] double coefficient_of_variation(std::span<const double> xs) noexcept;

/// Linear-interpolated percentile, p in [0, 100]. 0 for an empty range.
/// Copies and sorts `xs` on every call — for several percentiles of the
/// same sample set use percentiles() (one sort) instead.
[[nodiscard]] double percentile(std::span<const double> xs, double p);

/// percentile() evaluated against an already ascending-sorted range.
[[nodiscard]] double percentile_of_sorted(std::span<const double> sorted, double p) noexcept;

/// All requested percentiles (each in [0, 100]) of `xs` with a single copy
/// and sort; out[i] corresponds to ps[i]. Bit-identical to calling
/// percentile(xs, ps[i]) per entry, without the per-call re-sort.
[[nodiscard]] std::vector<double> percentiles(std::span<const double> xs,
                                              std::span<const double> ps);

[[nodiscard]] double min_of(std::span<const double> xs) noexcept;
[[nodiscard]] double max_of(std::span<const double> xs) noexcept;
[[nodiscard]] double sum(std::span<const double> xs) noexcept;

/// Equation 1 of the paper: min-max normalization with the degenerate branch.
///
///   X_norm = (X - Xmin) / (Xmax - Xmin)   if Xmax != Xmin
///   X_norm =  X - Xmin                    if Xmax == Xmin
///
/// The degenerate branch yields 0 for every element (all values equal), which
/// is exactly what the priority structure needs right after system start.
[[nodiscard]] std::vector<double> minmax_normalize(std::span<const double> xs);

/// In-place variant of minmax_normalize.
void minmax_normalize_inplace(std::span<double> xs) noexcept;

/// Integer-bucket histogram over non-negative values: the representation the
/// paper uses for inter-arrival times at minute resolution. Bucket i counts
/// occurrences of value i; values beyond `capacity` fall into the overflow
/// bucket (Wild's "out of bounds" tail).
class IntHistogram {
 public:
  /// capacity: largest representable value; anything larger is overflow.
  explicit IntHistogram(std::size_t capacity = 240);

  void add(std::size_t value, std::uint64_t weight = 1) noexcept {
    if (value < counts_.size()) {
      counts_[value] += weight;
    } else {
      overflow_ += weight;
    }
    total_ += weight;
  }
  void clear() noexcept;

  [[nodiscard]] std::size_t capacity() const noexcept { return counts_.size(); }
  [[nodiscard]] std::uint64_t count(std::size_t value) const noexcept {
    return value < counts_.size() ? counts_[value] : 0;
  }
  [[nodiscard]] std::uint64_t overflow() const noexcept { return overflow_; }
  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] bool empty() const noexcept { return total_ == 0; }

  /// Probability mass of `value` (count / total); 0 when empty.
  [[nodiscard]] double probability(std::size_t value) const noexcept {
    if (total_ == 0) return 0.0;
    return static_cast<double>(count(value)) / static_cast<double>(total_);
  }

  /// Smallest value v whose cumulative in-range count reaches the integer
  /// target max(1, ceil(p * in_range_count)), p clamped to [0, 1] — i.e.
  /// the smallest v with CDF(v) >= p, decided by integer comparison so an
  /// exact bin-edge target can never off-by-one through a float compare
  /// (these percentiles size Wild's pre-warm/keep-alive windows). p = 0
  /// returns the smallest value with any mass; p = 1 the largest. nullopt
  /// when empty or only overflow mass exists.
  [[nodiscard]] std::optional<std::size_t> percentile_value(double p) const noexcept;

  /// Adds every count of `other` into this histogram. Buckets beyond this
  /// histogram's capacity (including `other`'s overflow) land in overflow.
  void merge(const IntHistogram& other);

  /// Mean of the in-range values (overflow excluded); 0 when empty.
  [[nodiscard]] double in_range_mean() const noexcept;

  /// Coefficient of variation of the in-range values; 0 when empty.
  [[nodiscard]] double in_range_cv() const noexcept;

  /// Fraction of mass that landed in the overflow bucket.
  [[nodiscard]] double overflow_fraction() const noexcept;

 private:
  std::vector<std::uint64_t> counts_;
  std::uint64_t overflow_ = 0;
  std::uint64_t total_ = 0;
};

/// Streaming mean/variance accumulator (Welford). Used by the metrics layer
/// where the full series is not retained.
class RunningStats {
 public:
  void add(double x) noexcept;

  [[nodiscard]] std::size_t count() const noexcept { return n_; }
  [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
  [[nodiscard]] double variance() const noexcept { return n_ > 1 ? m2_ / static_cast<double>(n_) : 0.0; }
  [[nodiscard]] double stddev() const noexcept;
  [[nodiscard]] double min() const noexcept { return n_ ? min_ : 0.0; }
  [[nodiscard]] double max() const noexcept { return n_ ? max_ : 0.0; }
  [[nodiscard]] double sum() const noexcept { return sum_; }

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace pulse::util
