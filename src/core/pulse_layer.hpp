#pragma once
// PULSE's per-function machinery, shared by every policy that runs it:
// PulsePolicy, the MILP comparison of Figure 9 and the Wild+PULSE /
// IceBreaker+PULSE integrations of Figure 8. The layer owns the
// inter-arrival trackers and the global optimizer and provides the steps
// those policies have in common:
//
//   * the window pass — inter-arrival probability -> select_variant ->
//     schedule.set for each minute of a window;
//   * the drop-aware cold-start rule;
//   * the end-of-minute peak flattening (Algorithm 2).
//
// Each policy keeps only what is its own: the window it schedules (fixed
// or adaptive, Wild's predicted window, IceBreaker's forecast) or its peak
// step (Algorithm 2, or MILP's knapsack).

#include <cstdint>
#include <memory>
#include <vector>

#include "core/global_optimizer.hpp"
#include "core/interarrival.hpp"
#include "core/variant_selector.hpp"
#include "sim/schedule.hpp"

namespace pulse::core {

class PulseLayer {
 public:
  struct Config {
    /// Keep-alive window the optimizer's Ip component is evaluated over.
    trace::Minute keepalive_window = trace::kKeepAliveWindow;
    /// Sliding local window of the trackers and the peak detector.
    trace::Minute local_window = 60;
    /// KM_T of Algorithm 1.
    double memory_threshold = 0.10;
    ThresholdTechnique technique = ThresholdTechnique::kT1;
    UtilityWeights utility_weights{};
  };

  /// Builds one tracker per function and the optimizer. `longest_window`
  /// is the largest offset the window pass will be asked for; its buffer
  /// is sized once, here, so the pass never allocates. The trackers'
  /// histograms end at
  /// min(240, max(longest_window, keepalive_window)), the largest offset
  /// the window pass and the optimizer's Ip read. The optimizer emits
  /// through `observer` (nullptr = disabled).
  void initialize(const Config& config, std::size_t function_count,
                  trace::Minute longest_window, const obs::Observer* observer);

  /// Records f's invocation at minute t in its tracker.
  void record(trace::FunctionId f, trace::Minute t) { trackers_.at(f).record(t); }

  /// The function-centric step: for every offset d in [first_d, last_d],
  /// picks the variant for minute t + d from P(inter-arrival == d) at t
  /// and schedules it. Returns the variant chosen for minute t + first_d.
  /// Throws std::logic_error when last_d exceeds initialize()'s
  /// `longest_window`.
  std::size_t schedule_window(trace::FunctionId f, trace::Minute t, trace::Minute first_d,
                              trace::Minute last_d, sim::KeepAliveSchedule& schedule);

  /// A cold start of f at t within `window` minutes of f's last invocation
  /// only happens because the global optimizer dropped the container, so
  /// it serves the lowest variant, which is what the downgrade decided.
  /// Fresh cold starts deploy the highest variant, the provider default.
  [[nodiscard]] std::size_t cold_start_variant(trace::FunctionId f, trace::Minute t,
                                               trace::Minute window,
                                               const sim::Deployment& deployment) const;

  /// Algorithm 2 for minute t (GlobalOptimizer::flatten_peak).
  std::size_t flatten_peak(trace::Minute t, sim::KeepAliveSchedule& schedule) {
    return optimizer().flatten_peak(t, schedule, trackers_);
  }

  [[nodiscard]] std::uint64_t downgrade_count() const noexcept {
    return optimizer_ ? optimizer_->total_downgrades() : 0;
  }

  [[nodiscard]] const std::vector<InterArrivalTracker>& trackers() const noexcept {
    return trackers_;
  }
  /// Throws std::logic_error before initialize().
  [[nodiscard]] GlobalOptimizer& optimizer();
  [[nodiscard]] const GlobalOptimizer& optimizer() const;
  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  Config config_;
  std::vector<InterArrivalTracker> trackers_;
  /// probability(d, t) of the window being scheduled, d = 1..last_d.
  std::vector<double> window_probability_;
  std::unique_ptr<GlobalOptimizer> optimizer_;
};

}  // namespace pulse::core
