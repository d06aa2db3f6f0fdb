#include "policies/wild.hpp"

#include <algorithm>

namespace pulse::policies {

void WildPolicy::initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                            sim::KeepAliveSchedule& schedule) {
  (void)trace;
  (void)schedule;
  predictors_.assign(deployment.function_count(),
                     predict::HybridHistogramPredictor(config_.predictor));
}

void WildPolicy::attach_observer(const obs::Observer* observer) {
  sim::KeepAlivePolicy::attach_observer(observer);
  horizon_hist_ = {};
  if (obs::MetricsRegistry* const m = metrics()) {
    horizon_hist_.bind(*m, "wild.keepalive_horizon", 64);
  }
}

predict::WindowPrediction WildPolicy::predict_window(trace::FunctionId f, trace::Minute t) {
  const obs::PhaseTimer timer(profiler(), obs::Phase::kPredict);
  auto& predictor = predictors_.at(f);
  predictor.observe_invocation(t);
  predict::WindowPrediction w = predictor.predict();
  w.keepalive_until = std::clamp<trace::Minute>(w.keepalive_until, 1, config_.max_horizon);
  w.prewarm_offset = std::clamp<trace::Minute>(w.prewarm_offset, 0, w.keepalive_until - 1);
  horizon_hist_.record(static_cast<std::size_t>(w.keepalive_until));
  return w;
}

void WildPolicy::on_invocation(trace::FunctionId f, trace::Minute t,
                               sim::KeepAliveSchedule& schedule) {
  const obs::PhaseTimer timer(profiler(), obs::Phase::kSchedule);
  const predict::WindowPrediction w = predict_window(f, t);

  // Release the container during the predicted idle head, keep the
  // high-quality variant alive from the pre-warm point to the horizon.
  // clear_from is bounded by the function's scheduled horizon, so dropping
  // the stale tail costs the old window's length, not the trace length.
  schedule.clear_from(f, t + 1);
  schedule.fill(f, t + 1 + w.prewarm_offset, t + 1 + w.keepalive_until,
                static_cast<int>(schedule.variant_count_of(f)) - 1);
}

WildPulsePolicy::WildPulsePolicy() : WildPulsePolicy(Config{}) {}

WildPulsePolicy::WildPulsePolicy(Config config)
    : WildPolicy(config.wild), pulse_config_(config) {}

void WildPulsePolicy::initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                                 sim::KeepAliveSchedule& schedule) {
  WildPolicy::initialize(deployment, trace, schedule);

  core::InterArrivalTracker::Config tracker_config;
  tracker_config.local_window = pulse_config_.local_window;
  trackers_.assign(deployment.function_count(), core::InterArrivalTracker(tracker_config));

  core::GlobalOptimizer::Config opt_config;
  opt_config.peak.memory_threshold = pulse_config_.memory_threshold;
  opt_config.peak.local_window = pulse_config_.local_window;
  optimizer_ = std::make_unique<core::GlobalOptimizer>(deployment.function_count(), opt_config);
  optimizer_->reserve_horizon(static_cast<std::size_t>(trace.duration()));
  optimizer_->set_observer(observer());
}

void WildPulsePolicy::on_invocation(trace::FunctionId f, trace::Minute t,
                                    sim::KeepAliveSchedule& schedule) {
  const obs::PhaseTimer timer(profiler(), obs::Phase::kSchedule);
  // Wild forecasts the window ...
  const predict::WindowPrediction w = predict_window(f, t);

  core::InterArrivalTracker& tracker = trackers_.at(f);
  tracker.record(t);

  // ... and PULSE decides "which model variant should be kept active and
  // for how long" inside it (§IV, integration description).
  const std::size_t variants = schedule.variant_count_of(f);
  schedule.clear_from(f, t + 1);
  for (trace::Minute d = w.prewarm_offset; d < w.keepalive_until; ++d) {
    const std::size_t offset = static_cast<std::size_t>(d) + 1;
    const double p = tracker.probability(offset, t);
    const std::size_t v = core::select_variant(p, variants, pulse_config_.technique);
    schedule.set(f, t + 1 + d, static_cast<int>(v));
  }
}

void WildPulsePolicy::end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                                    const sim::MemoryHistory& history) {
  (void)history;
  const obs::PhaseTimer timer(profiler(), obs::Phase::kOptimize);
  optimizer_->flatten_peak(t, schedule, trackers_);
}

std::size_t WildPulsePolicy::cold_start_variant(trace::FunctionId f, trace::Minute t,
                                                const sim::Deployment& deployment) const {
  if (f < trackers_.size()) {
    if (const auto last = trackers_[f].last_invocation()) {
      if (t - *last <= trace::kKeepAliveWindow) return 0;
    }
  }
  return deployment.family_of(f).highest_index();
}

std::uint64_t WildPulsePolicy::downgrade_count() const {
  return optimizer_ ? optimizer_->total_downgrades() : 0;
}

}  // namespace pulse::policies
