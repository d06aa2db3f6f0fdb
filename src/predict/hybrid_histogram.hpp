#pragma once
// Serverless-in-the-Wild's hybrid histogram predictor (Shahrad et al.,
// USENIX ATC'20), reimplemented as the paper's "Wild" comparator uses it:
// a per-function histogram of idle (inter-arrival) times drives a pre-warm
// window and a keep-alive window; when the histogram is not representative
// (too few samples or too dispersed) or the idle time falls out of bounds,
// an AR time-series model forecasts the next idle time instead.

#include <cstddef>
#include <optional>
#include <vector>

#include "predict/arima.hpp"
#include "trace/trace.hpp"
#include "util/ring_buffer.hpp"
#include "util/stats.hpp"

namespace pulse::predict {

/// Keep-alive window relative to the last invocation: the container should
/// be (pre)warmed at `prewarm_offset` minutes after the invocation and kept
/// alive until `keepalive_until` minutes after it.
struct WindowPrediction {
  trace::Minute prewarm_offset = 0;
  trace::Minute keepalive_until = 10;
  bool used_time_series = false;
};

class HybridHistogramPredictor {
 public:
  struct Config {
    /// Histogram range in minutes; longer idle times are out-of-bounds.
    std::size_t histogram_capacity = 240;
    /// Head/tail percentiles that bound the window.
    double head_percentile = 0.05;
    double tail_percentile = 0.99;
    /// Safety margin applied to both bounds (head shrinks, tail grows).
    double margin = 0.10;
    /// Below this many observed idle times the histogram is not used.
    std::size_t min_samples = 8;
    /// Above this coefficient of variation the histogram is "not
    /// representative" and the AR fallback takes over.
    double cv_cutoff = 2.0;
    /// Fraction of out-of-bounds mass above which the AR fallback is used.
    double oob_cutoff = 0.5;
    /// AR fallback order.
    std::size_t ar_order = 3;
    /// Number of recent idle times retained for the AR fit.
    std::size_t ar_window = 64;
  };

  HybridHistogramPredictor();  // default Config
  explicit HybridHistogramPredictor(Config config);

  /// Records an invocation at minute t (updates the idle-time histogram).
  void observe_invocation(trace::Minute t);

  /// Predicts the pre-warm/keep-alive window following an invocation.
  /// Before any data exists, returns the conservative default [0, 10].
  [[nodiscard]] WindowPrediction predict() const;

  [[nodiscard]] const util::IntHistogram& histogram() const noexcept { return histogram_; }
  [[nodiscard]] std::size_t observed_idle_times() const noexcept {
    return recent_gaps_.size() + dropped_gaps_;
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  [[nodiscard]] bool histogram_representative() const;
  [[nodiscard]] double forecast_next_gap() const;

  Config config_;
  util::IntHistogram histogram_;
  util::RingBuffer<double> recent_gaps_;
  std::size_t dropped_gaps_ = 0;
  std::optional<trace::Minute> last_invocation_;
  /// The AR fallback, refit from the retained window per prediction; it
  /// and the ring linearized for its fit (ArModel::fit wants contiguous
  /// storage) are reused scratch, so a prediction never allocates. Mutable
  /// because predict() is logically const.
  mutable ArModel model_;
  mutable std::vector<double> fit_scratch_;
};

}  // namespace pulse::predict
