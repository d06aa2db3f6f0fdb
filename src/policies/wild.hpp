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
// keep-alive memory peaks.

#include <memory>
#include <string>
#include <vector>

#include "core/global_optimizer.hpp"
#include "core/interarrival.hpp"
#include "core/variant_selector.hpp"
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
  struct Config {
    WildPolicy::Config wild{};
    trace::Minute local_window = 60;
    double memory_threshold = 0.10;
    core::ThresholdTechnique technique = core::ThresholdTechnique::kT1;
  };

  WildPulsePolicy();  // default Config
  explicit WildPulsePolicy(Config config);

  [[nodiscard]] std::string name() const override { return "Wild+PULSE"; }

  void initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                  sim::KeepAliveSchedule& schedule) override;

  void on_invocation(trace::FunctionId f, trace::Minute t,
                     sim::KeepAliveSchedule& schedule) override;

  void end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                     const sim::MemoryHistory& history) override;

  /// Drop-induced cold starts inside the recent-invocation window serve the
  /// lowest variant (the downgrade's decision); fresh ones the highest.
  [[nodiscard]] std::size_t cold_start_variant(trace::FunctionId f, trace::Minute t,
                                               const sim::Deployment& deployment) const override;

  [[nodiscard]] std::uint64_t downgrade_count() const override;

 private:
  Config pulse_config_;
  std::vector<core::InterArrivalTracker> trackers_;
  std::unique_ptr<core::GlobalOptimizer> optimizer_;
};

inline WildPolicy::WildPolicy() : WildPolicy(Config{}) {}

}  // namespace pulse::policies
