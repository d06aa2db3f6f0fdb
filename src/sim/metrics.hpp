#pragma once
// Per-run simulation results: the three metrics the paper evaluates
// (service time, keep-alive cost, accuracy) plus the per-minute series
// behind Figures 4, 6(b) and 7. RunTotals is what every run frame reports
// alike (engine, platform, cluster); each result adds its own cost and
// series.

#include <cstdint>
#include <span>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "trace/trace.hpp"

namespace pulse::sim {

/// Per-function breakdown of a run (EngineConfig::record_per_function).
struct FunctionMetrics {
  std::uint64_t invocations = 0;
  std::uint64_t warm_starts = 0;
  std::uint64_t cold_starts = 0;
  double service_time_s = 0.0;
  double accuracy_pct_sum = 0.0;

  [[nodiscard]] double average_accuracy_pct() const noexcept {
    return invocations ? accuracy_pct_sum / static_cast<double>(invocations) : 0.0;
  }
  [[nodiscard]] double mean_service_time_s() const noexcept {
    return invocations ? service_time_s / static_cast<double>(invocations) : 0.0;
  }
};

/// The fault tallies sim::MinuteKernel writes for both simulators (part of
/// every RunTotals). One kernel makes every fault decision, so on
/// low-concurrency traces the two produce *identical* counter sets —
/// tests/platform/platform_fault_test.cpp compares these structs directly.
struct FaultCounters {
  /// Invocations that could not be served (every cold-start retry failed,
  /// or the shard was down): no service time, no accuracy, not served.
  std::uint64_t failed_invocations = 0;

  /// Cold-start retry attempts performed (each pays exponential backoff).
  std::uint64_t retries = 0;

  /// Served invocations abandoned at their per-variant SLO deadline
  /// (service time clipped there, zero accuracy credit).
  std::uint64_t timeouts = 0;

  /// Kept-alive containers evicted by injected crashes.
  std::uint64_t crash_evictions = 0;

  /// Containers forcibly evicted because keep-alive memory exceeded the
  /// configured (or pressure-tightened) capacity.
  std::uint64_t capacity_evictions = 0;

  /// Minutes in which at least one fault event fired (crash, cold-start
  /// failure/retry, timeout, or a memory-pressure spike).
  std::uint64_t degraded_minutes = 0;

  /// Incidents absorbed by a fault::GuardedPolicy wrapper (exceptions or
  /// predictor divergence); 0 for unguarded policies.
  std::uint64_t guard_incidents = 0;

  [[nodiscard]] bool operator==(const FaultCounters&) const noexcept = default;
};

/// The totals behind the paper's service-time and accuracy metrics, as
/// sim::MinuteKernel folds them at the end of every run and publishes them
/// as `<prefix>.*` (engine, platform). RunResult and PlatformResult are
/// one; ClusterResult::totals() sums its shards' in shard order. Keep-alive
/// cost is not here: each serving rule prices memory its own way. The
/// FaultCounters base is all zero unless faults or a capacity are set.
struct RunTotals : FaultCounters {
  std::uint64_t invocations = 0;
  std::uint64_t warm_starts = 0;
  std::uint64_t cold_starts = 0;

  /// Downgrades performed by the policy's cross-function optimizer.
  std::uint64_t downgrades = 0;

  /// Cumulative service time over every invocation (cold start + execution),
  /// seconds. The paper's "Service Time" metric.
  double total_service_time_s = 0.0;

  /// Sum over invocations of the serving variant's accuracy (percent);
  /// divide by `invocations` for the paper's accuracy metric.
  double accuracy_pct_sum = 0.0;

  [[nodiscard]] double failed_fraction() const noexcept {
    const std::uint64_t attempted = invocations + failed_invocations;
    return attempted ? static_cast<double>(failed_invocations) / static_cast<double>(attempted)
                     : 0.0;
  }

  [[nodiscard]] double average_accuracy_pct() const noexcept {
    return invocations ? accuracy_pct_sum / static_cast<double>(invocations) : 0.0;
  }

  [[nodiscard]] double warm_start_fraction() const noexcept {
    return invocations ? static_cast<double>(warm_starts) / static_cast<double>(invocations)
                       : 0.0;
  }

  /// The fault tallies alone (parity tests compare the two layers' with ==).
  [[nodiscard]] FaultCounters fault_counters() const noexcept { return *this; }

  /// Field-wise sum.
  RunTotals& operator+=(const RunTotals& o) noexcept;

  /// The inherited == would compare only the fault tallies.
  bool operator==(const RunTotals&) const = delete;
};

/// Per-run result of the minute engine.
struct RunResult : RunTotals {
  /// Total provider keep-alive spend, USD.
  double total_keepalive_cost_usd = 0.0;

  /// Wall-clock time spent inside policy decision calls, seconds — the
  /// overhead metric of Figure 9. Measured only with a PhaseProfiler
  /// attached (sim::PolicyCallTimer; on_invocation time is sampled), else 0.
  double policy_overhead_s = 0.0;

  /// Per-minute series (empty unless EngineConfig::record_series).
  std::vector<double> keepalive_memory_mb;
  std::vector<double> keepalive_cost_usd;
  std::vector<double> ideal_cost_usd;

  /// Per-function breakdown (empty unless EngineConfig::record_per_function).
  std::vector<FunctionMetrics> per_function;

  /// Individual invocation service times in trace order (empty unless
  /// EngineConfig::record_service_samples). Enables tail-latency analysis.
  std::vector<double> service_time_samples;

  /// Snapshot of the attached obs::MetricsRegistry taken at the end of the
  /// run; empty when no registry was attached. Not part of the determinism
  /// fingerprint — it is diagnostics, not a paper metric. When one registry
  /// serves several runs (ensemble slots) the snapshot is cumulative up to
  /// this run's completion.
  obs::MetricsSnapshot metrics;

  /// Linear-interpolated percentile of the recorded service-time samples
  /// (p in [0, 100]); 0 when sampling was off.
  [[nodiscard]] double service_time_percentile(double p) const;

  /// Several percentiles of the service-time samples with a single sort
  /// (out[i] corresponds to ps[i]; bit-identical to per-p calls). Prefer
  /// this when reporting p50/p95/p99 together — service_time_percentile
  /// re-sorts the whole sample set on every call.
  [[nodiscard]] std::vector<double> service_time_percentiles(
      std::span<const double> ps) const;

  /// Overhead relative to delivered service time (Figure 9's x-axis).
  [[nodiscard]] double overhead_over_service_time() const noexcept {
    return total_service_time_s > 0.0 ? policy_overhead_s / total_service_time_s : 0.0;
  }
};

/// Percentage improvement of `ours` over `baseline` where *smaller is
/// better* (service time, cost): positive means `ours` is better.
[[nodiscard]] inline double improvement_pct(double baseline, double ours) noexcept {
  if (baseline == 0.0) return 0.0;
  return 100.0 * (baseline - ours) / baseline;
}

/// Percentage change of `ours` relative to `baseline` where *larger is
/// better* (accuracy): positive means `ours` is better.
[[nodiscard]] inline double change_pct(double baseline, double ours) noexcept {
  if (baseline == 0.0) return 0.0;
  return 100.0 * (ours - baseline) / baseline;
}

}  // namespace pulse::sim
