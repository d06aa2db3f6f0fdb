#include "core/pulse_policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace pulse::core {

PulsePolicy::PulsePolicy() : PulsePolicy(Config{}) {}

PulsePolicy::PulsePolicy(Config config) : config_(config) {
  if (config_.keepalive_window <= 0) {
    throw std::invalid_argument("PulsePolicy: keepalive_window must be positive");
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
  (void)schedule;
  InterArrivalTracker::Config tracker_config;
  tracker_config.local_window = config_.local_window;
  trackers_.assign(deployment.function_count(), InterArrivalTracker(tracker_config));
  // Room for the longest window window_for() can return, so on_invocation
  // never allocates.
  const trace::Minute longest_window =
      config_.adaptive_window ? std::max(config_.keepalive_window, config_.max_adaptive_window)
                              : config_.keepalive_window;
  window_probability_.assign(static_cast<std::size_t>(longest_window), 0.0);

  GlobalOptimizer::Config opt_config;
  opt_config.peak.memory_threshold = config_.memory_threshold;
  opt_config.peak.local_window = config_.local_window;
  opt_config.keepalive_window = config_.keepalive_window;
  opt_config.weights = config_.utility_weights;
  optimizer_ = std::make_unique<GlobalOptimizer>(deployment.function_count(), opt_config);
  optimizer_->reserve_horizon(static_cast<std::size_t>(trace.duration()));
  optimizer_->set_observer(observer());
}

trace::Minute PulsePolicy::window_for(trace::FunctionId f) const {
  if (!config_.adaptive_window) return config_.keepalive_window;
  const auto tail = trackers_.at(f).gap_percentile(config_.adaptive_window_percentile);
  if (!tail) return config_.keepalive_window;
  return std::clamp<trace::Minute>(static_cast<trace::Minute>(*tail), 1,
                                   config_.max_adaptive_window);
}

void PulsePolicy::on_invocation(trace::FunctionId f, trace::Minute t,
                                sim::KeepAliveSchedule& schedule) {
  const obs::PhaseTimer timer(profiler(), obs::Phase::kSchedule);
  InterArrivalTracker& tracker = trackers_.at(f);
  tracker.record(t);

  // Function-centric optimization: pick the variant for each minute of the
  // upcoming keep-alive window from that offset's invocation probability.
  const std::size_t variants = schedule.variant_count_of(f);
  const trace::Minute window = window_for(f);
  // Clear any longer window a previous (adaptive) decision left behind.
  if (config_.adaptive_window) schedule.clear_from(f, t + 1);
  tracker.probabilities(static_cast<std::size_t>(window), t, window_probability_);
  std::size_t next_v = 0;  // variant chosen for the first window minute
  for (trace::Minute d = 1; d <= window; ++d) {
    const std::size_t v = select_variant(window_probability_[static_cast<std::size_t>(d - 1)],
                                         variants, config_.technique);
    if (d == 1) next_v = v;
    schedule.set(f, t + d, static_cast<int>(v));
  }

  // One kPolicyDecision per variant-selection pass: the variant chosen for
  // the first window minute (the decision that resolves the next warm
  // start) and the window length it covers. `next_v` is hoisted from the
  // d == 1 loop iteration above — attached runs must not pay a second
  // select_variant pass per invocation.
  if (obs::TraceSink* s = sink(); s != nullptr) {
    s->record({obs::EventType::kPolicyDecision, t, f, static_cast<std::int32_t>(next_v),
               static_cast<double>(window), "variant_selection"});
  }
}

void PulsePolicy::end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                                const sim::MemoryHistory& history) {
  (void)history;  // peaks are detected against the policy's own demand record
  if (!config_.enable_global_optimization) return;
  const obs::PhaseTimer timer(profiler(), obs::Phase::kOptimize);
  optimizer_->flatten_peak(t, schedule, trackers_);
}

std::size_t PulsePolicy::cold_start_variant(trace::FunctionId f, trace::Minute t,
                                            const sim::Deployment& deployment) const {
  if (f < trackers_.size()) {
    if (const auto last = trackers_[f].last_invocation()) {
      if (t - *last <= config_.keepalive_window) return 0;
    }
  }
  return deployment.family_of(f).highest_index();
}

std::uint64_t PulsePolicy::downgrade_count() const {
  return optimizer_ ? optimizer_->total_downgrades() : 0;
}

const GlobalOptimizer& PulsePolicy::optimizer() const {
  if (!optimizer_) throw std::logic_error("PulsePolicy::optimizer: not initialized");
  return *optimizer_;
}

}  // namespace pulse::core
