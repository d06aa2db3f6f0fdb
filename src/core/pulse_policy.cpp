#include "core/pulse_policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace pulse::core {

PulsePolicy::PulsePolicy() : PulsePolicy(Config{}) {}

PulsePolicy::PulsePolicy(Config config) : config_(config) {
  if (config_.keepalive_window <= 0) {
    throw std::invalid_argument("PulsePolicy: keepalive_window must be positive");
  }
  // A negative window would put the trackers' window cutoff ahead of the
  // query minute, and the next record behind it.
  if (config_.local_window < 0) {
    throw std::invalid_argument("PulsePolicy: local_window must not be negative");
  }
  if (config_.adaptive_window && config_.max_adaptive_window < 1) {
    throw std::invalid_argument("PulsePolicy: max_adaptive_window must be positive");
  }
}

std::string PulsePolicy::name() const {
  std::string n = "PULSE";
  n += config_.technique == ThresholdTechnique::kT1 ? "(T1" : "(T2";
  if (!config_.enable_global_optimization) n += ",individual-only";
  n += ")";
  return n;
}

void PulsePolicy::initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                             sim::KeepAliveSchedule& schedule) {
  (void)trace;
  (void)schedule;
  // Room for the longest window window_for() can return, so on_invocation
  // never allocates. An adaptive window reads gap_percentile over the full
  // 240-bin histogram, so it asks for at least that many offsets.
  const trace::Minute longest_window =
      config_.adaptive_window
          ? std::max({config_.keepalive_window, config_.max_adaptive_window,
                      static_cast<trace::Minute>(InterArrivalTracker::kMaxHistogramCapacity)})
          : config_.keepalive_window;
  pulse_.initialize({.keepalive_window = config_.keepalive_window,
                     .local_window = config_.local_window,
                     .memory_threshold = config_.memory_threshold,
                     .technique = config_.technique,
                     .utility_weights = config_.utility_weights},
                    deployment.function_count(), longest_window, observer());
}

trace::Minute PulsePolicy::window_for(trace::FunctionId f) const {
  if (!config_.adaptive_window) return config_.keepalive_window;
  const auto tail = pulse_.trackers().at(f).gap_percentile(kAdaptiveWindowPercentile);
  if (!tail) return config_.keepalive_window;
  return std::clamp<trace::Minute>(static_cast<trace::Minute>(*tail), 1,
                                   config_.max_adaptive_window);
}

void PulsePolicy::on_invocation(trace::FunctionId f, trace::Minute t,
                                sim::KeepAliveSchedule& schedule) {
  pulse_.record(f, t);

  // Function-centric optimization: pick the variant for each minute of the
  // upcoming keep-alive window from that offset's invocation probability.
  const trace::Minute window = window_for(f);
  // Clear any longer window a previous (adaptive) decision left behind.
  if (config_.adaptive_window) schedule.clear_from(f, t + 1);
  const std::size_t next_v = pulse_.schedule_window(f, t, 1, window, schedule);

  // One kPolicyDecision per variant-selection pass: the variant chosen for
  // the first window minute (the decision that resolves the next warm
  // start) and the window length it covers.
  if (obs::TraceSink* s = sink(); s != nullptr) {
    s->record({obs::EventType::kPolicyDecision, t, f, static_cast<std::int32_t>(next_v),
               static_cast<double>(window), "variant_selection"});
  }
}

void PulsePolicy::end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                                const sim::MemoryHistory& history) {
  (void)history;  // peaks are detected against the optimizer's own demand stream
  if (!config_.enable_global_optimization) return;
  pulse_.flatten_peak(t, schedule);
}

std::size_t PulsePolicy::cold_start_variant(trace::FunctionId f, trace::Minute t,
                                            const sim::Deployment& deployment) const {
  const trace::Minute window =
      f < pulse_.trackers().size() ? window_for(f) : config_.keepalive_window;
  return pulse_.cold_start_variant(f, t, window, deployment);
}

}  // namespace pulse::core
