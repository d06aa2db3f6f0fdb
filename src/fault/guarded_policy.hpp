#pragma once
// GuardedPolicy: a fault barrier around any KeepAlivePolicy.
//
// A policy that throws (MILP solver failure, predictor divergence fenced by
// predict::ensure_finite, a plain bug) would otherwise abort the whole
// multi-day run. The guard catches every exception at the policy boundary,
// counts it as an incident, and degrades to the provider's safe fixed
// keep-alive behaviour (highest-quality variant, 10-minute window) from
// that point on — the run completes with honest metrics instead of
// crashing or propagating a garbage schedule.

#include <memory>
#include <string>

#include "sim/policy.hpp"
#include "trace/analysis.hpp"

namespace pulse::fault {

class GuardedPolicy : public sim::KeepAlivePolicy {
 public:
  explicit GuardedPolicy(std::unique_ptr<sim::KeepAlivePolicy> inner);

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
  [[nodiscard]] std::uint64_t incident_count() const override { return incidents_; }

  /// Forwards the observer to the inner policy as well, so the wrapped
  /// policy's events and phase timings keep flowing while the guard also
  /// reports its own incidents.
  void attach_observer(const obs::Observer* observer) override;

  /// true once the guard has tripped and the fallback is driving.
  [[nodiscard]] bool degraded() const noexcept { return degraded_; }
  /// Minute of the first incident; -1 while healthy.
  [[nodiscard]] trace::Minute degraded_since() const noexcept { return degraded_since_; }
  /// Description of the first caught incident ("" while healthy).
  [[nodiscard]] const std::string& first_incident() const noexcept { return first_incident_; }

 private:
  void record_incident(trace::Minute t, const char* what) const;

  std::unique_ptr<sim::KeepAlivePolicy> inner_;
  // cold_start_variant() is const on the interface but must still be able
  // to trip the guard, hence mutable incident state.
  mutable std::uint64_t incidents_ = 0;
  mutable bool degraded_ = false;
  mutable trace::Minute degraded_since_ = -1;
  mutable std::string first_incident_;
  mutable obs::CounterHandle incident_counter_;  // guard.incidents
};

}  // namespace pulse::fault
