#pragma once
// The PULSE keep-alive policy: function-centric optimization (inter-arrival
// probabilities + greedy variant thresholds) composed with cross-function
// optimization (utility-value peak flattening). This is the paper's primary
// contribution, packaged as a sim::KeepAlivePolicy.

#include "core/pulse_layer.hpp"
#include "sim/policy.hpp"

namespace pulse::core {

class PulsePolicy : public sim::KeepAlivePolicy {
 public:
  struct Config {
    /// Keep-alive window length after an invocation, minutes. The paper is
    /// built around the providers' 10-minute window but notes the design
    /// "can be adapted to different keep-alive durations".
    trace::Minute keepalive_window = trace::kKeepAliveWindow;

    /// Sliding local window for both the inter-arrival tracker and the
    /// peak detector (Figure 12 sweeps 10/60/120).
    trace::Minute local_window = 60;

    /// KM_T of Algorithm 1 (Figure 11 sweeps 0.05/0.10/0.15).
    double memory_threshold = 0.10;

    /// Probability-threshold technique (Figure 10 compares T1 and T2).
    ThresholdTechnique technique = ThresholdTechnique::kT1;

    /// Disable to get the "individual function optimization only"
    /// configuration of Figure 4(b).
    bool enable_global_optimization = true;

    /// Utility component weights for the global optimizer (equal by
    /// default, per the paper; used by the ablation bench).
    UtilityWeights utility_weights{};

    /// Extension beyond the paper (its conclusion notes the design "can be
    /// adapted to different keep-alive durations"): when enabled, each
    /// function's window length follows the tail of its own inter-arrival
    /// distribution — clamp(p-quantile of observed gaps, 1,
    /// max_adaptive_window) — instead of the fixed keepalive_window. The
    /// constructor throws std::invalid_argument when adaptive_window is set
    /// and max_adaptive_window < 1.
    bool adaptive_window = false;
    trace::Minute max_adaptive_window = 30;
  };

  /// The gap quantile p an adaptive window follows.
  static constexpr double kAdaptiveWindowPercentile = 0.95;

  PulsePolicy();  // default Config
  explicit PulsePolicy(Config config);

  [[nodiscard]] std::string name() const override;

  void initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                  sim::KeepAliveSchedule& schedule) override;

  void on_invocation(trace::FunctionId f, trace::Minute t,
                     sim::KeepAliveSchedule& schedule) override;

  void end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                     const sim::MemoryHistory& history) override;

  /// PulseLayer's drop-aware rule over window_for(f), the length of the
  /// window scheduled at f's last invocation: it cannot change before the
  /// next record().
  [[nodiscard]] std::size_t cold_start_variant(trace::FunctionId f, trace::Minute t,
                                               const sim::Deployment& deployment) const override;

  [[nodiscard]] std::uint64_t downgrade_count() const override {
    return pulse_.downgrade_count();
  }

  /// Throws std::logic_error before initialize().
  [[nodiscard]] const GlobalOptimizer& optimizer() const { return pulse_.optimizer(); }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Window length that will be scheduled for f's next invocation (the
  /// fixed configuration value, or the adaptive per-function length).
  [[nodiscard]] trace::Minute window_for(trace::FunctionId f) const;

 private:
  Config config_;
  PulseLayer pulse_;
};

}  // namespace pulse::core
