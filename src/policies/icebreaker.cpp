#include "policies/icebreaker.hpp"

#include <algorithm>
#include <memory>
#include <span>

#include "predict/divergence.hpp"

namespace pulse::policies {

void IceBreakerPolicy::initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                                  sim::KeepAliveSchedule& schedule) {
  (void)schedule;
  (void)trace;
  // forecast() reads only the last kFftWindow minutes, so each function's
  // history is a fixed kHistoryCapacity block: end_of_minute() never
  // allocates, however long the run.
  history_.assign(deployment.function_count() * kHistoryCapacity, 0.0);
  history_minutes_ = 0;
  current_minute_count_.assign(deployment.function_count(), 0);
  // One plan per run: its tables cover every refit size up to kFftWindow
  // and the basis of full-window forecasts.
  const auto horizon = static_cast<std::size_t>(config_.refresh_interval);
  forecaster_ = predict::HarmonicForecaster(
      std::make_shared<const predict::HarmonicPlan>(kFftWindow, horizon));
  forecast_buffer_.assign(horizon, 0.0);
}

void IceBreakerPolicy::attach_observer(const obs::Observer* observer) {
  sim::KeepAlivePolicy::attach_observer(observer);
  refreshes_ = {};
  if (obs::MetricsRegistry* const m = metrics()) {
    refreshes_.bind(*m, "icebreaker.refreshes");
  }
}

void IceBreakerPolicy::on_invocation(trace::FunctionId f, trace::Minute t,
                                     sim::KeepAliveSchedule& schedule) {
  (void)t;
  (void)schedule;
  // Only record; all scheduling is predictor-driven at period boundaries.
  current_minute_count_.at(f) += 1;
}

void IceBreakerPolicy::forecast(trace::FunctionId f) {
  const obs::PhaseTimer timer(profiler(), obs::Phase::kPredict);
  const std::span<const double> series(history_.data() + f * kHistoryCapacity,
                                        history_minutes_);
  forecaster_.extrapolate(series.last(std::min(kFftWindow, series.size())), kHarmonics,
                          forecast_buffer_);
  predict::ensure_finite(forecast_buffer_, "icebreaker/fft");
}

void IceBreakerPolicy::apply_forecast(trace::FunctionId f, trace::Minute t,
                                      const std::vector<double>& predicted,
                                      sim::KeepAliveSchedule& schedule) {
  const int highest = static_cast<int>(schedule.variant_count_of(f)) - 1;
  for (std::size_t d = 0; d < predicted.size(); ++d) {
    const trace::Minute m = t + 1 + static_cast<trace::Minute>(d);
    if (predicted[d] >= kActivationThreshold) {
      schedule.set(f, m, highest);
    } else {
      schedule.set(f, m, sim::kNoVariant);
    }
  }
}

void IceBreakerPolicy::end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                                     const sim::MemoryHistory& history) {
  (void)history;
  // Close the accounting for minute t. A full history drops its older
  // half, which no forecast reads any more.
  const std::size_t functions = current_minute_count_.size();
  if (history_minutes_ == kHistoryCapacity) {
    for (std::size_t f = 0; f < functions; ++f) {
      double* const series = history_.data() + f * kHistoryCapacity;
      std::copy(series + kFftWindow, series + kHistoryCapacity, series);
    }
    history_minutes_ = kFftWindow;
  }
  for (trace::FunctionId f = 0; f < functions; ++f) {
    history_[f * kHistoryCapacity + history_minutes_] =
        static_cast<double>(current_minute_count_[f]);
    current_minute_count_[f] = 0;
  }
  ++history_minutes_;

  // Staggered refits: function f refits when (t + 1 + f) % refresh_interval
  // == 0 and schedules its own next refresh_interval minutes, so each minute
  // refits at most ceil(F / refresh_interval) functions instead of all F
  // every refresh_interval-th minute.
  const auto interval = static_cast<std::size_t>(config_.refresh_interval);
  const std::size_t due = (interval - static_cast<std::size_t>(t + 1) % interval) % interval;
  if (due >= functions) return;
  const std::size_t refits = (functions - due + interval - 1) / interval;
  refreshes_.add(refits);
  if (obs::TraceSink* const s = sink()) {
    s->record({obs::EventType::kPolicyDecision, t, obs::TraceEvent::kNoFunction, -1,
               static_cast<double>(refits), "forecast_refresh"});
  }
  for (trace::FunctionId f = due; f < functions; f += interval) {
    forecast(f);
    apply_forecast(f, t, forecast_buffer_, schedule);
  }
}

void IceBreakerPulsePolicy::initialize(const sim::Deployment& deployment,
                                       const trace::Trace& trace,
                                       sim::KeepAliveSchedule& schedule) {
  IceBreakerPolicy::initialize(deployment, trace, schedule);
  // The forecast, not the window pass, picks the variants here.
  pulse_.initialize({}, deployment.function_count(), 0, observer());
}

void IceBreakerPulsePolicy::on_invocation(trace::FunctionId f, trace::Minute t,
                                          sim::KeepAliveSchedule& schedule) {
  IceBreakerPolicy::on_invocation(f, t, schedule);
  pulse_.record(f, t);
}

void IceBreakerPulsePolicy::apply_forecast(trace::FunctionId f, trace::Minute t,
                                           const std::vector<double>& predicted,
                                           sim::KeepAliveSchedule& schedule) {
  // PULSE maps the predicted concurrency to an invocation likelihood and
  // selects the variant greedily instead of always warming the highest one.
  const std::size_t variants = schedule.variant_count_of(f);
  for (std::size_t d = 0; d < predicted.size(); ++d) {
    const trace::Minute m = t + 1 + static_cast<trace::Minute>(d);
    if (predicted[d] < kActivationThreshold) {
      schedule.set(f, m, sim::kNoVariant);
      continue;
    }
    const double likelihood = std::clamp(predicted[d], 0.0, 1.0);
    const std::size_t v = core::select_variant(likelihood, variants, pulse_.config().technique);
    schedule.set(f, m, static_cast<int>(v));
  }
}

void IceBreakerPulsePolicy::end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                                          const sim::MemoryHistory& history) {
  IceBreakerPolicy::end_of_minute(t, schedule, history);
  pulse_.flatten_peak(t, schedule);
}

}  // namespace pulse::policies
