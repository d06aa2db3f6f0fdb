#pragma once
// DivergingPolicy: a chaos instrument for the guard and the benches.
//
// It delegates to a real policy until a configured minute, after which its
// "predictor" diverges the way an unfenced ARIMA does on pathological data:
// an AR model is fitted on a NaN-poisoned gap series, its forecast comes
// back non-finite, and predict::ensure_finite turns that into a
// PredictorDivergence. Run unguarded, that exception escapes
// SimulationEngine::run and kills the replay — exactly the failure mode the
// tentpole hardens against. Wrapped in GuardedPolicy, the run completes on
// the fixed-keep-alive fallback with the incident counted.

#include <memory>
#include <string>

#include "sim/policy.hpp"

namespace pulse::fault {

class DivergingPolicy : public sim::KeepAlivePolicy {
 public:
  struct Config {
    /// First minute at which the predictor diverges.
    trace::Minute diverge_at = 0;
  };

  explicit DivergingPolicy(std::unique_ptr<sim::KeepAlivePolicy> inner);  // default Config
  DivergingPolicy(std::unique_ptr<sim::KeepAlivePolicy> inner, Config config);

  [[nodiscard]] std::string name() const override;

  void initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                  sim::KeepAliveSchedule& schedule) override;

  void on_invocation(trace::FunctionId f, trace::Minute t,
                     sim::KeepAliveSchedule& schedule) override;

  void end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                     const sim::MemoryHistory& history) override;

  [[nodiscard]] std::size_t cold_start_variant(trace::FunctionId f, trace::Minute t,
                                               const sim::Deployment& deployment) const override;

  [[nodiscard]] std::uint64_t downgrade_count() const override;

 private:
  std::unique_ptr<sim::KeepAlivePolicy> inner_;
  Config config_;
};

}  // namespace pulse::fault
