#pragma once
// The MILP-based keep-alive policy of Figure 9: identical function-centric
// optimization to PULSE, but peaks are resolved by solving the
// multiple-choice knapsack over all kept-alive models in one shot instead
// of PULSE's iterative lowest-utility downgrades. One-shot selection lacks
// PULSE's per-round priority re-normalization ("iterative adaptability"),
// which is why the paper observes it favours lower-quality variants — and
// its search cost is what makes its decision overhead an order of magnitude
// higher.

#include <memory>
#include <vector>

#include "core/global_optimizer.hpp"
#include "core/interarrival.hpp"
#include "core/peak_detector.hpp"
#include "core/priority.hpp"
#include "core/variant_selector.hpp"
#include "policies/milp.hpp"
#include "sim/policy.hpp"
#include "trace/analysis.hpp"

namespace pulse::policies {

class MilpPolicy : public sim::KeepAlivePolicy {
 public:
  struct Config {
    trace::Minute keepalive_window = trace::kKeepAliveWindow;
    trace::Minute local_window = 60;
    double memory_threshold = 0.10;
    core::ThresholdTechnique technique = core::ThresholdTechnique::kT1;
  };

  MilpPolicy();  // default Config
  explicit MilpPolicy(Config config) : config_(config) {}

  [[nodiscard]] std::string name() const override { return "MILP"; }

  void initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                  sim::KeepAliveSchedule& schedule) override;

  void on_invocation(trace::FunctionId f, trace::Minute t,
                     sim::KeepAliveSchedule& schedule) override;

  void end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                     const sim::MemoryHistory& history) override;

  /// Same cold-start rule as PULSE: drop-induced colds serve the lowest
  /// variant, fresh ones the highest.
  [[nodiscard]] std::size_t cold_start_variant(trace::FunctionId f, trace::Minute t,
                                               const sim::Deployment& deployment) const override;

  [[nodiscard]] std::uint64_t downgrade_count() const override { return downgrades_; }

  /// Total branch-and-bound nodes explored across all peaks (overhead
  /// diagnostics).
  [[nodiscard]] std::uint64_t solver_nodes() const noexcept { return solver_nodes_; }

  /// Binds the milp.* handle bundle (no name lookup per solve).
  void attach_observer(const obs::Observer* observer) override;

 private:
  Config config_;
  std::vector<core::InterArrivalTracker> trackers_;
  std::unique_ptr<core::PeakDetector> detector_;
  std::unique_ptr<core::PriorityStructure> priority_;
  core::DemandHistory demand_;
  std::uint64_t downgrades_ = 0;
  std::uint64_t solver_nodes_ = 0;

  /// Pre-resolved milp.* handles, flushed at each solve (a minute boundary).
  struct Metrics {
    obs::CounterHandle solves;
    obs::CounterHandle solver_nodes;
    obs::CounterHandle downgrades;
  };
  Metrics metrics_handles_;

  /// Reused across peak minutes (allocation-free hot path).
  std::vector<std::pair<trace::FunctionId, std::size_t>> kept_buffer_;
  std::vector<double> priority_buffer_;
};

inline MilpPolicy::MilpPolicy() : MilpPolicy(Config{}) {}

}  // namespace pulse::policies
