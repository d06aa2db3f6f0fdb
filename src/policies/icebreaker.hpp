#pragma once
// IceBreaker (Roy et al., ASPLOS'22) as the paper configures it: a fast
// Fourier-based forecaster predicts each function's upcoming invocation
// intensity and containers are warmed for the minutes where the predicted
// intensity crosses an activation threshold. The paper runs IceBreaker on a
// single node type, so its heterogeneous-node utility function is not
// exercised. IceBreaker is model-variant-unaware: it warms the
// highest-quality variant.
//
// IceBreakerPulsePolicy is the Figure 8 integration: IceBreaker's
// "function invocation predictor, which determines the concurrency of
// subsequent periods" is preserved, and PULSE maps the predicted intensity
// to a variant choice, then applies its global peak flattening, at PULSE's
// default window, threshold and technique.

#include <string>
#include <vector>

#include "core/pulse_layer.hpp"
#include "predict/fft.hpp"
#include "sim/policy.hpp"
#include "trace/analysis.hpp"

namespace pulse::policies {

class IceBreakerPolicy : public sim::KeepAlivePolicy {
 public:
  /// History window fed to the FFT, minutes.
  static constexpr std::size_t kFftWindow = 256;
  /// Minutes of count history kept per function: twice the FFT window, so
  /// the older half is dropped once every kFftWindow minutes.
  static constexpr std::size_t kHistoryCapacity = 2 * kFftWindow;
  /// Number of dominant harmonics kept.
  static constexpr std::size_t kHarmonics = 8;
  /// Predicted invocations/minute at or above which the function is warmed
  /// for that minute.
  static constexpr double kActivationThreshold = 0.30;

  struct Config {
    /// Forecast horizon == scheduling period, minutes.
    trace::Minute refresh_interval = trace::kKeepAliveWindow;
  };

  IceBreakerPolicy();  // default Config
  explicit IceBreakerPolicy(Config config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "IceBreaker"; }

  void initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                  sim::KeepAliveSchedule& schedule) override;

  void on_invocation(trace::FunctionId f, trace::Minute t,
                     sim::KeepAliveSchedule& schedule) override;

  void end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                     const sim::MemoryHistory& history) override;

  /// Binds the icebreaker.* handle bundle (no name lookup per refresh).
  void attach_observer(const obs::Observer* observer) override;

 protected:
  /// Writes f's predicted invocation intensity for the next refresh
  /// interval into forecast_buffer_. Allocation-free.
  void forecast(trace::FunctionId f);

  /// Hook for the PULSE integration: schedule function f for the horizon
  /// minutes (t+1 .. t+horizon) given the predicted intensities.
  virtual void apply_forecast(trace::FunctionId f, trace::Minute t,
                              const std::vector<double>& predicted,
                              sim::KeepAliveSchedule& schedule);

  Config config_;
  /// Per-function per-minute counts, kHistoryCapacity per function; the
  /// first history_minutes_ of each are filled (the same for every
  /// function: end_of_minute closes every function's minute).
  std::vector<double> history_;
  std::size_t history_minutes_ = 0;
  std::vector<std::uint32_t> current_minute_count_;  // accumulating minute t
  predict::HarmonicForecaster forecaster_;           // one plan + fit scratch per run
  std::vector<double> forecast_buffer_;              // forecast() output
  obs::CounterHandle refreshes_;                     // icebreaker.refreshes: function refits
};

class IceBreakerPulsePolicy : public IceBreakerPolicy {
 public:
  using IceBreakerPolicy::IceBreakerPolicy;

  [[nodiscard]] std::string name() const override { return "IceBreaker+PULSE"; }

  void initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                  sim::KeepAliveSchedule& schedule) override;

  void on_invocation(trace::FunctionId f, trace::Minute t,
                     sim::KeepAliveSchedule& schedule) override;

  void end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                     const sim::MemoryHistory& history) override;

  /// PULSE's drop-aware cold-start rule over the 10-minute window.
  [[nodiscard]] std::size_t cold_start_variant(trace::FunctionId f, trace::Minute t,
                                               const sim::Deployment& deployment) const override {
    return pulse_.cold_start_variant(f, t, trace::kKeepAliveWindow, deployment);
  }

  [[nodiscard]] std::uint64_t downgrade_count() const override {
    return pulse_.downgrade_count();
  }

 protected:
  void apply_forecast(trace::FunctionId f, trace::Minute t,
                      const std::vector<double>& predicted,
                      sim::KeepAliveSchedule& schedule) override;

 private:
  core::PulseLayer pulse_;
};

inline IceBreakerPolicy::IceBreakerPolicy() : IceBreakerPolicy(Config{}) {}

}  // namespace pulse::policies
