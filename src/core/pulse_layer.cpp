#include "core/pulse_layer.hpp"

#include <algorithm>
#include <stdexcept>

namespace pulse::core {

void PulseLayer::initialize(const Config& config, std::size_t function_count,
                            trace::Minute longest_window, const obs::Observer* observer) {
  config_ = config;
  // Every probabilities()/probability_within() offset the layer's owners
  // ask for is at most the widest window they schedule or score, so the
  // trackers keep a bin per offset up to it, never past 240: a longer gap
  // stays overflow, p_full reads 0 for it as before.
  const trace::Minute widest = std::max(longest_window, config_.keepalive_window);
  InterArrivalTracker::Config tracker_config;
  tracker_config.local_window = config_.local_window;
  tracker_config.histogram_capacity = static_cast<std::size_t>(std::clamp<trace::Minute>(
      widest, 1, static_cast<trace::Minute>(InterArrivalTracker::kMaxHistogramCapacity)));
  trackers_.assign(function_count, InterArrivalTracker(tracker_config));
  window_probability_.assign(static_cast<std::size_t>(longest_window), 0.0);

  GlobalOptimizer::Config opt_config;
  opt_config.peak.memory_threshold = config_.memory_threshold;
  opt_config.peak.local_window = config_.local_window;
  opt_config.keepalive_window = config_.keepalive_window;
  opt_config.weights = config_.utility_weights;
  optimizer_ = std::make_unique<GlobalOptimizer>(function_count, opt_config);
  optimizer_->set_observer(observer);
}

std::size_t PulseLayer::schedule_window(trace::FunctionId f, trace::Minute t,
                                        trace::Minute first_d, trace::Minute last_d,
                                        sim::KeepAliveSchedule& schedule) {
  const auto to_d = static_cast<std::size_t>(last_d);
  if (to_d > window_probability_.size()) {
    throw std::logic_error("PulseLayer::schedule_window: window longer than initialize() sized");
  }
  trackers_.at(f).probabilities(to_d, t, window_probability_);

  const std::size_t variants = schedule.variant_count_of(f);
  std::size_t first_v = 0;
  for (trace::Minute d = first_d; d <= last_d; ++d) {
    const std::size_t v = select_variant(window_probability_[static_cast<std::size_t>(d - 1)],
                                         variants, config_.technique);
    if (d == first_d) first_v = v;
    schedule.set(f, t + d, static_cast<int>(v));
  }
  return first_v;
}

std::size_t PulseLayer::cold_start_variant(trace::FunctionId f, trace::Minute t,
                                           trace::Minute window,
                                           const sim::Deployment& deployment) const {
  if (f < trackers_.size()) {
    if (const auto last = trackers_[f].last_invocation()) {
      if (t - *last <= window) return 0;
    }
  }
  return deployment.family_of(f).highest_index();
}

GlobalOptimizer& PulseLayer::optimizer() {
  if (!optimizer_) throw std::logic_error("PulseLayer::optimizer: not initialized");
  return *optimizer_;
}

const GlobalOptimizer& PulseLayer::optimizer() const {
  if (!optimizer_) throw std::logic_error("PulseLayer::optimizer: not initialized");
  return *optimizer_;
}

}  // namespace pulse::core
