#pragma once
// Serverless in the Wild (Shahrad et al., ATC'20) as the paper configures
// it: the hybrid histogram predicts, per function, a pre-warm offset and a
// keep-alive horizon after every invocation; the container is released
// until the pre-warm point and kept alive from there to the horizon. Wild
// is model-variant-unaware, so it always keeps the highest-quality variant
// (the paper's "conventional practice of invoking high-quality models
// indiscriminately").
//
// WildPulsePolicy is the Figure 8 integration: Wild's predicted window is
// preserved, then PULSE's function-centric optimization picks the variant
// per minute inside that window and PULSE's global optimizer flattens
// keep-alive memory peaks, at PULSE's default window, threshold and
// technique.

#include <string>
#include <vector>

#include "core/pulse_layer.hpp"
#include "predict/hybrid_histogram.hpp"
#include "sim/policy.hpp"
#include "trace/analysis.hpp"

namespace pulse::policies {

class WildPolicy : public sim::KeepAlivePolicy {
 public:
  struct Config {
    predict::HybridHistogramPredictor::Config predictor{};
    /// Hard cap on the scheduled keep-alive horizon, minutes (keeps tail
    /// predictions from pinning containers for hours).
    trace::Minute max_horizon = 240;
  };

  WildPolicy();  // default Config
  explicit WildPolicy(Config config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "Wild"; }

  void initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                  sim::KeepAliveSchedule& schedule) override;

  void on_invocation(trace::FunctionId f, trace::Minute t,
                     sim::KeepAliveSchedule& schedule) override;

  [[nodiscard]] const predict::HybridHistogramPredictor& predictor(trace::FunctionId f) const {
    return predictors_.at(f);
  }

  /// Binds the wild.* handle bundle; per-invocation emission then never
  /// resolves a metric name.
  void attach_observer(const obs::Observer* observer) override;

 protected:
  /// Clamped prediction for f's window after an invocation at t.
  [[nodiscard]] predict::WindowPrediction predict_window(trace::FunctionId f,
                                                         trace::Minute t);

  Config config_;
  std::vector<predict::HybridHistogramPredictor> predictors_;
  obs::HistogramHandle horizon_hist_;  // wild.keepalive_horizon
};

class WildPulsePolicy : public WildPolicy {
 public:
  using WildPolicy::WildPolicy;

  [[nodiscard]] std::string name() const override { return "Wild+PULSE"; }

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

 private:
  core::PulseLayer pulse_;
};

inline WildPolicy::WildPolicy() : WildPolicy(Config{}) {}

}  // namespace pulse::policies
