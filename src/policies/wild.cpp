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
  const predict::WindowPrediction w = predict_window(f, t);

  // Release the container during the predicted idle head, keep the
  // high-quality variant alive from the pre-warm point to the horizon.
  // clear_from is bounded by the function's scheduled horizon, so dropping
  // the stale tail costs the old window's length, not the trace length.
  schedule.clear_from(f, t + 1);
  schedule.fill(f, t + 1 + w.prewarm_offset, t + 1 + w.keepalive_until,
                static_cast<int>(schedule.variant_count_of(f)) - 1);
}

void WildPulsePolicy::initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                                 sim::KeepAliveSchedule& schedule) {
  WildPolicy::initialize(deployment, trace, schedule);
  // Wild's window reaches at most max_horizon minutes past the invocation.
  pulse_.initialize({}, deployment.function_count(), config_.max_horizon, observer());
}

void WildPulsePolicy::on_invocation(trace::FunctionId f, trace::Minute t,
                                    sim::KeepAliveSchedule& schedule) {
  // Wild forecasts the window ...
  const predict::WindowPrediction w = predict_window(f, t);
  pulse_.record(f, t);

  // ... and PULSE decides "which model variant should be kept active and
  // for how long" inside it (§IV, integration description).
  schedule.clear_from(f, t + 1);
  pulse_.schedule_window(f, t, w.prewarm_offset + 1, w.keepalive_until, schedule);
}

void WildPulsePolicy::end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                                    const sim::MemoryHistory& history) {
  (void)history;
  pulse_.flatten_peak(t, schedule);
}

}  // namespace pulse::policies
