#include "core/peak_detector.hpp"

#include <algorithm>

namespace pulse::core {

PeakDetector::PeakDetector(Config config)
    : config_(config),
      window_(static_cast<std::size_t>(std::max<trace::Minute>(config.local_window, 0)), 0.0) {}

double PeakDetector::prior_memory() const noexcept {
  if (seen_ == 0) return kInfiniteMemory;

  // Continuous activity: minutes after the first of a keep-alive period
  // simply compare against the previous minute (Algorithm 1, line 21).
  if (previous_ > 0.0) return previous_;

  // First minute of a keep-alive period after inactivity. Once the system
  // has run for 2x the window the ring is full; its average is summed
  // oldest to newest.
  const trace::Minute window = config_.local_window;
  if (window > 0 && seen_ >= 2 * window) {
    double window_sum = 0.0;
    for (std::size_t i = head_; i < window_.size(); ++i) window_sum += window_[i];
    for (std::size_t i = 0; i < head_; ++i) window_sum += window_[i];
    const double window_avg = window_sum / static_cast<double>(window);
    if (window_avg > 0.0) return window_avg;
  }

  // Fall back to the last non-zero keep-alive memory value ever recorded.
  return last_nonzero_;
}

void PeakDetector::push(double memory_mb) noexcept {
  if (!window_.empty()) {
    window_[head_] = memory_mb;
    if (++head_ == window_.size()) head_ = 0;
  }
  previous_ = memory_mb;
  if (memory_mb > 0.0) last_nonzero_ = memory_mb;
  ++seen_;
}

}  // namespace pulse::core
