#pragma once
// The MILP-based keep-alive policy of Figure 9: identical function-centric
// optimization to PULSE, but peaks are resolved by solving the
// multiple-choice knapsack over all kept-alive models in one shot instead
// of PULSE's iterative lowest-utility downgrades. One-shot selection lacks
// PULSE's per-round priority re-normalization ("iterative adaptability"),
// which is why the paper observes it favours lower-quality variants — and
// its search cost is what makes its decision overhead an order of magnitude
// higher. It runs at PULSE's default window, threshold and technique.

#include <vector>

#include "core/pulse_layer.hpp"
#include "policies/milp.hpp"
#include "sim/policy.hpp"

namespace pulse::policies {

class MilpPolicy : public sim::KeepAlivePolicy {
 public:
  [[nodiscard]] std::string name() const override { return "MILP"; }

  void initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                  sim::KeepAliveSchedule& schedule) override;

  void on_invocation(trace::FunctionId f, trace::Minute t,
                     sim::KeepAliveSchedule& schedule) override;

  void end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                     const sim::MemoryHistory& history) override;

  /// PULSE's drop-aware cold-start rule over the 10-minute window.
  [[nodiscard]] std::size_t cold_start_variant(trace::FunctionId f, trace::Minute t,
                                               const sim::Deployment& deployment) const override {
    return pulse_.cold_start_variant(f, t, pulse_.config().keepalive_window, deployment);
  }

  [[nodiscard]] std::uint64_t downgrade_count() const override {
    return pulse_.downgrade_count();
  }

  /// Total branch-and-bound nodes explored across all peaks (overhead
  /// diagnostics).
  [[nodiscard]] std::uint64_t solver_nodes() const noexcept { return solver_nodes_; }

  /// Binds the milp.* handle bundle (no name lookup per solve).
  void attach_observer(const obs::Observer* observer) override;

 private:
  core::PulseLayer pulse_;
  std::uint64_t solver_nodes_ = 0;

  /// Pre-resolved milp.* handles.
  struct Metrics {
    obs::CounterHandle solves;
    obs::CounterHandle solver_nodes;
    obs::CounterHandle downgrades;
  };
  Metrics metrics_handles_;

  /// Reused across peak minutes.
  std::vector<std::pair<trace::FunctionId, std::size_t>> kept_buffer_;
};

}  // namespace pulse::policies
