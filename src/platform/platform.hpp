#pragma once
// Container-granular serverless platform simulator (seconds resolution).
//
// The paper's evaluation — like this repository's sim::SimulationEngine —
// works at minute resolution and lets all of a minute's invocations share
// one container. Real FaaS platforms (the AWS Lambda setup the paper
// characterized on) give each in-flight invocation its own container:
// concurrent requests scale out, and overlapping work triggers extra cold
// starts. This module simulates that faithfully:
//
//   * invocations inside a minute arrive spread across its 60 seconds;
//   * a request is served by an idle warm container of its function if one
//     exists, otherwise a new container cold-starts (scale-out);
//   * containers finish executing and return to the warm pool;
//   * at every minute boundary the platform reconciles the warm pool with
//     the policy's KeepAliveSchedule (same policy interface as the
//     minute engine): scheduled functions keep one pre-warmed container of
//     the scheduled variant; unscheduled idle containers are reaped.
//
// Shared kernel: every run is framed by the minute engine's own
// sim::MinuteKernel: the schedule, the policy's calls and their timer, the
// event lane, the service-time draw over the per-function jitter streams,
// container crashes, cold-start retry/backoff, SLO timeouts, memory-pressure
// spikes, capacity eviction (same keyed victim draws) and the end-of-run
// fold of the sim::RunTotals that PlatformResult, like RunResult, derives
// from are one code path on both layers, and both configs derive from the
// sim::RunConfig the kernel reads, so their parity holds by construction.
// The platform adds only its serving rule (the per-container seconds pool
// above, whose idle containers die with a capacity victim), spread_arrivals
// and its own result fields.
//
// Its purpose is cross-validation: on low-concurrency workloads it must
// agree with the minute engine — fault counters and total cost included
// (tests assert this) — and on bursty ones it quantifies the abstraction's
// error (bench_concurrency).

#include <cstdint>
#include <vector>

#include "sim/deployment.hpp"
#include "sim/metrics.hpp"
#include "sim/minute_kernel.hpp"
#include "sim/policy.hpp"
#include "trace/trace.hpp"

namespace pulse::platform {

/// Platform time in seconds since trace start.
using Second = std::int64_t;

constexpr Second kSecondsPerMinute = 60;

/// The kernel's sim::RunConfig (record_series: container memory sampled at
/// minute boundaries) plus the one rule only this layer has.
struct PlatformConfig : sim::RunConfig {
  /// Spread each minute's invocations uniformly over its 60 seconds (true)
  /// or fire them all at the minute's first second (false — the worst-case
  /// concurrency assumption).
  bool spread_arrivals = true;
};

/// The run's sim::RunTotals (the counters, service time and accuracy the
/// minute engine reports, folded by the same kernel) plus the
/// container-level tallies and cost only this layer has.
struct PlatformResult : sim::RunTotals {
  /// Cold starts caused purely by concurrency (a warm container existed
  /// but every one was busy) — the error term of the minute abstraction.
  std::uint64_t scale_out_cold_starts = 0;

  /// Containers created over the run (pre-warms + cold starts).
  std::uint64_t containers_created = 0;

  /// Containers spawned at reconcile time to satisfy the schedule (no
  /// invocation drove them). Each pays its variant's cold-start
  /// provisioning time before turning warm.
  std::uint64_t prewarm_starts = 0;

  /// Largest number of simultaneously live containers.
  std::size_t peak_containers = 0;

  /// Keep-alive + execution memory cost, USD (container-seconds priced by
  /// the same cost model as the minute engine).
  double total_cost_usd = 0.0;

  /// Per-minute container-memory samples (PlatformConfig::record_series).
  std::vector<double> memory_mb;

  /// Snapshot of the attached obs::MetricsRegistry taken at the end of the
  /// run; empty when no registry was attached.
  obs::MetricsSnapshot metrics;
};

class PlatformSimulator {
 public:
  /// deployment/trace must outlive the simulator; function counts must
  /// match.
  PlatformSimulator(const sim::Deployment& deployment, const trace::Trace& trace,
                    PlatformConfig config = {});

  /// Replays the trace at container granularity under `policy` (the same
  /// minute-level KeepAlivePolicy interface the minute engine drives).
  [[nodiscard]] PlatformResult run(sim::KeepAlivePolicy& policy);

  [[nodiscard]] const PlatformConfig& config() const noexcept { return config_; }

 private:
  const sim::Deployment* deployment_;
  const trace::Trace* trace_;
  PlatformConfig config_;
};

}  // namespace pulse::platform
