#pragma once
// Minute-resolution discrete-event simulation of a serverless platform
// serving ML inference under a pluggable keep-alive policy.
//
// Faithful to the paper's simulation methodology (§IV): the trace is
// replayed at minute resolution; invocations within a minute share the
// container state of that minute; the first invocation of a cold minute
// pays the cold-start penalty; keep-alive memory and cost accrue per minute
// from the keep-alive schedule the policy maintains.

#include <cstdint>
#include <vector>

#include "obs/observer.hpp"
#include "sim/deployment.hpp"
#include "sim/metrics.hpp"
#include "sim/minute_kernel.hpp"
#include "sim/policy.hpp"
#include "trace/trace.hpp"

namespace pulse::sim {

/// The kernel's sim::RunConfig plus what only the minute engine reads.
struct EngineConfig : RunConfig {
  /// Keep per-function invocation/warm/cold/service-time/accuracy
  /// breakdowns in the result.
  bool record_per_function = false;

  /// Keep every invocation's service time (tail-latency analysis; memory
  /// cost is one double per invocation).
  bool record_service_samples = false;

  /// Draw each invocation's correctness as Bernoulli(variant accuracy)
  /// instead of crediting the expected accuracy directly. The ensemble
  /// means converge to the same values (the paper reports expectations);
  /// this models the per-request variance real inference datasets show.
  bool bernoulli_accuracy = false;

  /// Emit one kMinuteSample event per simulated minute (value = keep-alive
  /// memory MB, variant = alive container count). The per-minute anchor the
  /// JSONL replayer (exp::replay_events) reconstructs cost curves from.
  /// Off by default: it adds duration() events per run.
  bool emit_minute_samples = false;

  /// Keep per-function cold-start/eviction tallies and fold the top K
  /// functions (by count, ties broken by ascending catalog-global id) into
  /// the metrics registry at finish as engine.topk.* counters. 0 = off.
  /// The tallies are plain array increments; no events are emitted.
  std::size_t top_k_function_metrics = 0;

  /// Ignored. Every run draws a function's latency jitter and Bernoulli
  /// accuracy from that function's own util::function_stream and picks
  /// capacity victims by (seed, minute, ordinal) hashing, so results never
  /// depend on which other functions share the engine. Kept only so
  /// existing assignments still compile.
  bool hashed_rng = false;

  /// Optional catalog-global function ids, one per local function. When a
  /// cluster shard replays a sub-trace, local function f stands for global
  /// function (*global_ids)[f]; fault-injection hashing, the per-function
  /// streams and trace-event coordinates all use the global id, so fault
  /// patterns, samples, and events are those of the full catalog regardless
  /// of the partitioning. Must outlive the engine. nullptr = identity mapping.
  const std::vector<trace::FunctionId>* global_ids = nullptr;
};

/// Minute-stepped execution of one simulation run.
///
/// Exactly the replay SimulationEngine::run performs, exposed as an object
/// that can be advanced in minute-granular slices so a coordinating layer
/// (the sharded ClusterEngine) can interleave several runs and adjust
/// capacity quotas at epoch barriers. SimulationEngine::run is implemented
/// on top of this class: a SteppedRun driven straight to the end produces a
/// bitwise-identical RunResult.
///
/// deployment/trace/policy must outlive the run; the policy is used
/// exclusively by this object.
class SteppedRun {
 public:
  SteppedRun(const Deployment& deployment, const trace::Trace& trace, EngineConfig config,
             KeepAlivePolicy& policy);

  SteppedRun(const SteppedRun&) = delete;
  SteppedRun& operator=(const SteppedRun&) = delete;

  /// Simulates minutes [next_minute(), min(end, duration())). No-op when
  /// the run is already past `end`. Slicing is exact: any sequence of calls
  /// that reaches a minute leaves the run in the same state as one call, so
  /// the cluster engine can stop a crashing shard at its crash minute.
  void run_until(trace::Minute end);

  /// First minute not yet simulated (== duration() when the replay is done).
  [[nodiscard]] trace::Minute next_minute() const noexcept { return next_minute_; }

  [[nodiscard]] trace::Minute duration() const noexcept;

  /// Adjusts the keep-alive capacity for minutes not yet simulated (the
  /// cluster capacity market re-quotas shards between epochs). 0 = unlimited.
  void set_memory_capacity_mb(double mb) noexcept { config_.memory_capacity_mb = mb; }
  [[nodiscard]] double memory_capacity_mb() const noexcept {
    return config_.memory_capacity_mb;
  }

  /// Counters and totals accumulated so far (downgrade/guard counters and
  /// policy overhead are only folded in by finish()). Valid until finish().
  [[nodiscard]] const RunResult& partial() const noexcept { return result_; }

  /// Keep-alive memory recorded at a simulated minute t (0 outside
  /// [0, next_minute())) — the pressure signal the capacity market reads.
  [[nodiscard]] double keepalive_memory_mb(trace::Minute t) const noexcept;

  /// Runs any remaining minutes, folds end-of-run counters and metrics,
  /// feeds the run's own collector (if any) to the sink, and returns the
  /// final result. Call at most once.
  RunResult finish();

  /// finish(), but stopping at minute `end` instead of the trace's full
  /// duration. The online serving mode runs over a pre-sized horizon trace
  /// and closes the run at the last minute the stream actually delivered;
  /// a batch run over a trace of duration `end` produces the identical
  /// result. Call at most once (mutually exclusive with finish()).
  RunResult finish_at(trace::Minute end);

  /// Shard crash at minute t: every container alive at t — and everything
  /// scheduled after it — is lost with the shard. Counts the alive
  /// containers as crash evictions and returns how many were lost.
  std::uint64_t lose_warm_pool(trace::Minute t);

  /// Advances through [next_minute(), min(end, duration())) as a dead-shard
  /// outage: every arrival fails, no memory is held and no cost accrues,
  /// but minute-indexed policy bookkeeping (end_of_minute) stays aligned
  /// with the clock. Returns the failed invocations added.
  std::uint64_t run_outage(trace::Minute end);

 private:
  void step_minute();
  void serve_minute(trace::Minute t);
  /// Books a simulated minute's memory, cost, series and obs samples.
  void close_minute(trace::Minute t, double memory_t, std::size_t alive_n);
  void fold_top_k(obs::MetricsRegistry& m) const;

  const Deployment* deployment_;
  const trace::Trace* trace_;
  EngineConfig config_;

  RunResult result_;
  MinuteKernel kernel_;  // everything but the serving rule of step_minute()
  /// Per-function Bernoulli accuracy streams (empty unless
  /// EngineConfig::bernoulli_accuracy); jitter comes from the kernel's.
  std::vector<util::Pcg32> accuracy_rng_;
  util::IntHistogram* alive_hist_ = nullptr;
  /// Per-function tallies for EngineConfig::top_k_function_metrics (empty
  /// when the knob is off or no registry is attached).
  std::vector<std::uint64_t> fn_cold_starts_;
  std::vector<std::uint64_t> fn_evictions_;
  trace::Minute next_minute_ = 0;
  bool finished_ = false;
};

class SimulationEngine {
 public:
  /// deployment/trace must outlive the engine. The deployment's function
  /// count must match the trace's.
  SimulationEngine(const Deployment& deployment, const trace::Trace& trace,
                   EngineConfig config = {});

  /// Replays the whole trace under `policy` and returns the run's metrics.
  /// The policy is used exclusively by this call (stateful policies must be
  /// fresh per run).
  [[nodiscard]] RunResult run(KeepAlivePolicy& policy);

  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }

 private:
  const Deployment* deployment_;
  const trace::Trace* trace_;
  EngineConfig config_;
};

}  // namespace pulse::sim
