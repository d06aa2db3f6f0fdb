#include "predict/hybrid_histogram.hpp"

#include <algorithm>
#include <cmath>

#include "predict/divergence.hpp"

namespace pulse::predict {

HybridHistogramPredictor::HybridHistogramPredictor()
    : HybridHistogramPredictor(Config{}) {}

HybridHistogramPredictor::HybridHistogramPredictor(Config config)
    : config_(config),
      histogram_(config.histogram_capacity),
      recent_gaps_(config.ar_window),
      model_(config.ar_order) {
  fit_scratch_.reserve(config_.ar_window);
}

void HybridHistogramPredictor::observe_invocation(trace::Minute t) {
  if (last_invocation_ && t > *last_invocation_) {
    const auto gap = static_cast<std::size_t>(t - *last_invocation_);
    histogram_.add(gap);
    recent_gaps_.push_back(static_cast<double>(gap));
    if (recent_gaps_.size() > config_.ar_window) {
      recent_gaps_.pop_front();
      ++dropped_gaps_;
    }
  }
  last_invocation_ = t;
}

bool HybridHistogramPredictor::histogram_representative() const {
  if (histogram_.total() < config_.min_samples) return false;
  if (histogram_.overflow_fraction() > config_.oob_cutoff) return false;
  return histogram_.in_range_cv() <= config_.cv_cutoff;
}

double HybridHistogramPredictor::forecast_next_gap() const {
  // Refit from the retained window. The ring is linearized into the scratch
  // vector in arrival order, so values and evaluation order match the
  // historical std::vector implementation bit-for-bit.
  recent_gaps_.copy_to(fit_scratch_);
  model_.fit(fit_scratch_);
  const double next = model_.forecast_one();
  // A non-finite forecast cast to trace::Minute below would be UB; fence it
  // here so the policy layer sees a typed divergence instead.
  ensure_finite(next, "hybrid-histogram/ar");
  return next;
}

WindowPrediction HybridHistogramPredictor::predict() const {
  WindowPrediction w;
  if (histogram_.total() < config_.min_samples) {
    // Cold model: fall back to the provider's fixed 10-minute window until
    // enough history accumulates (Wild does the same during warm-up).
    return w;
  }

  if (histogram_representative()) {
    const auto head = histogram_.percentile_value(config_.head_percentile);
    const auto tail = histogram_.percentile_value(config_.tail_percentile);
    if (head && tail) {
      const double lo = static_cast<double>(*head) * (1.0 - config_.margin);
      const double hi = static_cast<double>(*tail) * (1.0 + config_.margin);
      w.prewarm_offset = std::max<trace::Minute>(0, static_cast<trace::Minute>(std::floor(lo)));
      w.keepalive_until =
          std::max<trace::Minute>(w.prewarm_offset + 1, static_cast<trace::Minute>(std::ceil(hi)));
      return w;
    }
  }

  // Heavy-tailed / out-of-bounds behaviour: forecast the next idle time.
  const double predicted = std::max(1.0, forecast_next_gap());
  const double margin = std::max(1.0, predicted * config_.margin);
  w.prewarm_offset =
      std::max<trace::Minute>(0, static_cast<trace::Minute>(std::floor(predicted - margin)));
  w.keepalive_until = static_cast<trace::Minute>(std::ceil(predicted + margin));
  w.used_time_series = true;
  return w;
}

}  // namespace pulse::predict
