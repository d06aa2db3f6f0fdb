#pragma once
// The pluggable keep-alive policy interface.
//
// The engine drives the trace minute by minute. For every minute in which a
// function is invoked, it calls on_invocation() once (multiple invocations
// of the same function within one minute share the container). After all of
// a minute's invocations it calls end_of_minute(), where cross-function
// policies (PULSE's global optimizer, MILP) flatten keep-alive memory peaks.
// Both simulators make both calls through sim::MinuteKernel's one
// PolicyCallTimer, which also times them.

#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "obs/observer.hpp"
#include "sim/schedule.hpp"
#include "trace/trace.hpp"

namespace pulse::sim {

/// Opaque snapshot of a policy's mutable state (see
/// KeepAlivePolicy::checkpoint). No engine creates or consumes one.
class PolicyCheckpoint {
 public:
  virtual ~PolicyCheckpoint() = default;
};

/// Read-only view of the per-minute keep-alive memory history that the
/// engine has recorded so far. memory_at(t) is valid for t < now; the
/// current minute's (possibly still mutating) memory comes from the
/// schedule. It is part of end_of_minute's signature, but no policy in
/// src/ reads it: PULSE's peak detector streams its own demand series.
class MemoryHistory {
 public:
  virtual ~MemoryHistory() = default;

  /// Recorded keep-alive memory (MB) at a past minute; 0 before the trace.
  [[nodiscard]] virtual double memory_at(trace::Minute t) const = 0;

  /// First minute not yet recorded (== the current minute).
  [[nodiscard]] virtual trace::Minute now() const = 0;
};

class KeepAlivePolicy {
 public:
  virtual ~KeepAlivePolicy() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Called once before the first minute. `schedule` is empty at this
  /// point; oracle-style baselines may pre-fill it here.
  virtual void initialize(const Deployment& deployment, const trace::Trace& trace,
                          KeepAliveSchedule& schedule) {
    (void)deployment;
    (void)trace;
    (void)schedule;
  }

  /// Function f was invoked at minute t (the engine has already resolved
  /// warm/cold for this minute). The policy updates the keep-alive plan —
  /// typically minutes (t, t+10].
  virtual void on_invocation(trace::FunctionId f, trace::Minute t,
                             KeepAliveSchedule& schedule) = 0;

  /// Called after all invocations of minute t. Cross-function policies
  /// inspect schedule.memory_at(t) against `history` and may downgrade.
  virtual void end_of_minute(trace::Minute t, KeepAliveSchedule& schedule,
                             const MemoryHistory& history) {
    (void)t;
    (void)schedule;
    (void)history;
  }

  /// Variant that serves a cold start of f at minute t (no container was
  /// alive). Default: the highest-quality variant, matching the provider
  /// behaviour the baselines deploy.
  [[nodiscard]] virtual std::size_t cold_start_variant(trace::FunctionId f, trace::Minute t,
                                                       const Deployment& deployment) const {
    (void)t;
    return deployment.family_of(f).highest_index();
  }

  /// Total variant downgrades performed so far (PULSE's global optimizer
  /// reports these; others return 0).
  [[nodiscard]] virtual std::uint64_t downgrade_count() const { return 0; }

  /// Faults absorbed by a guarding wrapper (fault::GuardedPolicy reports
  /// the incidents it caught; plain policies return 0). The engine copies
  /// this into RunResult::guard_incidents.
  [[nodiscard]] virtual std::uint64_t incident_count() const { return 0; }

  /// Policy snapshot hooks. No engine calls them: a crashed cluster shard
  /// stops at its crash minute instead of rolling back. They remain only
  /// because the end-to-end benchmark's timing decorator
  /// (bench/e2e/timed_policy.hpp) still overrides both.
  [[nodiscard]] virtual std::unique_ptr<PolicyCheckpoint> checkpoint() const {
    return nullptr;
  }
  virtual void restore(const PolicyCheckpoint* snapshot) { (void)snapshot; }

  /// Attaches the observability context (nullptr = disabled, the default).
  /// The run's MinuteKernel calls this before initialize(); wrappers forward to
  /// their inner policy. The observer must outlive the policy's use.
  virtual void attach_observer(const obs::Observer* observer) { obs_ = observer; }

 protected:
  /// Sink for typed events; nullptr when tracing is off. Guard emission on
  /// this pointer so disabled runs never construct a TraceEvent.
  [[nodiscard]] obs::TraceSink* sink() const noexcept { return obs_ ? obs_->sink : nullptr; }
  [[nodiscard]] obs::MetricsRegistry* metrics() const noexcept {
    return obs_ ? obs_->metrics : nullptr;
  }
  [[nodiscard]] obs::PhaseProfiler* profiler() const noexcept {
    return obs_ ? obs_->profiler : nullptr;
  }
  /// Raw observer pointer, for forwarding to helpers (e.g. the PULSE
  /// global optimizer) that hold their own reference. nullptr = disabled.
  [[nodiscard]] const obs::Observer* observer() const noexcept { return obs_; }

 private:
  const obs::Observer* obs_ = nullptr;
};

/// The call site of a run's on_invocation / end_of_minute, and the one timer of
/// policy calls. With a PhaseProfiler attached it counts every call (kSchedule,
/// kOptimize), times every end_of_minute but only one on_invocation in
/// kScheduleSampleEvery (scaled by it: an estimate), and sums the time into overhead_s().
class PolicyCallTimer {
 public:
  static constexpr std::uint64_t kScheduleSampleEvery = 64;

  PolicyCallTimer(KeepAlivePolicy& policy, obs::PhaseProfiler* profiler) noexcept
      : policy_(&policy), profiler_(profiler) {}

  void on_invocation(trace::FunctionId f, trace::Minute t, KeepAliveSchedule& schedule) {
    const bool timed = profiler_ != nullptr && invocations_++ % kScheduleSampleEvery == 0;
    const Clock::time_point start = timed ? Clock::now() : Clock::time_point{};
    policy_->on_invocation(f, t, schedule);
    if (profiler_ != nullptr) {
      record(obs::Phase::kSchedule, timed ? kScheduleSampleEvery * seconds_since(start) : 0.0);
    }
  }

  void end_of_minute(trace::Minute t, KeepAliveSchedule& schedule, const MemoryHistory& history) {
    const Clock::time_point start = profiler_ != nullptr ? Clock::now() : Clock::time_point{};
    policy_->end_of_minute(t, schedule, history);
    if (profiler_ != nullptr) record(obs::Phase::kOptimize, seconds_since(start));
  }

  /// Policy time of this run so far, seconds; 0 with no profiler.
  [[nodiscard]] double overhead_s() const noexcept { return overhead_s_; }

 private:
  using Clock = std::chrono::steady_clock;

  static double seconds_since(Clock::time_point start) noexcept {
    return std::chrono::duration<double>(Clock::now() - start).count();
  }
  void record(obs::Phase phase, double seconds) noexcept {
    profiler_->record(phase, seconds);
    overhead_s_ += seconds;
  }

  KeepAlivePolicy* policy_;
  obs::PhaseProfiler* profiler_;
  std::uint64_t invocations_ = 0;
  double overhead_s_ = 0.0;
};

}  // namespace pulse::sim
