#pragma once
// Keep-alive memory peak detection — Algorithm 1 of the paper.
//
// A minute t is a peak when its keep-alive memory exceeds the *prior*
// keep-alive memory by more than the keep-alive memory threshold KM_T:
//
//   is_peak  <=>  C_KaM > P_KaM + KM_T * P_KaM
//
// The subtlety Algorithm 1 handles is choosing P_KaM at the first minute of
// a keep-alive period (i.e. right after a stretch of inactivity): diurnal /
// nocturnal / intermittent functions would otherwise compare against a
// zero prior and cold-start en masse. The rules:
//
//   * continuous activity (previous minute had keep-alive memory):
//       P_KaM = keep-alive memory of minute t-1;
//   * first minute after inactivity, system operational for >= 2x the local
//     window and the window average is non-zero:
//       P_KaM = average keep-alive memory over the local window;
//   * otherwise:
//       P_KaM = the last non-zero keep-alive memory ever recorded, or
//       +infinity when none exists (never a peak right at system start).
//
// The detector is a streaming rule: it is fed one memory value per minute
// and keeps only what those rules read — the previous minute's value, the
// last local_window values, the number of minutes seen and the last
// non-zero value.

#include <cstddef>
#include <limits>
#include <vector>

#include "trace/trace.hpp"

namespace pulse::core {

class PeakDetector {
 public:
  struct Config {
    /// KM_T: tunable keep-alive memory threshold (paper sweeps 5%/10%/15%
    /// in Figure 11; 10% is the default M2 setting).
    double memory_threshold = 0.10;
    /// Sliding local window duration, minutes.
    trace::Minute local_window = 60;
  };

  PeakDetector();  // default Config
  /// Sizes the local-window ring once; push() never allocates.
  explicit PeakDetector(Config config);

  /// The ISPEAK predicate of Algorithm 1.
  [[nodiscard]] bool is_peak(double current_memory, double prior_memory) const noexcept {
    return current_memory > prior_memory + config_.memory_threshold * prior_memory;
  }

  /// P_KaM for the next minute, minutes_seen(), given the values pushed
  /// for the minutes before it.
  [[nodiscard]] double prior_memory() const noexcept;

  /// Appends minute minutes_seen()'s keep-alive memory.
  void push(double memory_mb) noexcept;

  [[nodiscard]] trace::Minute minutes_seen() const noexcept { return seen_; }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  static constexpr double kInfiniteMemory = std::numeric_limits<double>::infinity();

 private:
  Config config_;
  /// The last local_window values; window_[head_] is the oldest once the
  /// ring is full, and the next slot push() writes.
  std::vector<double> window_;
  std::size_t head_ = 0;
  trace::Minute seen_ = 0;
  double previous_ = 0.0;
  double last_nonzero_ = kInfiniteMemory;
};

inline PeakDetector::PeakDetector() : PeakDetector(Config{}) {}

}  // namespace pulse::core
