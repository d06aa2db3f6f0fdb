#pragma once
// TimedPolicy: a KeepAlivePolicy decorator that times the policy layer from
// outside. It forwards every virtual to the wrapped policy and measures
// on_invocation, end_of_minute and checkpoint with two steady_clock reads
// per call. Calls are aggregated (count and total), never logged one by one.
//
// Each instance accumulates privately and folds its totals into the shared
// PolicyClock when it is destroyed, so worker threads touch the clock's lock
// once per policy instance. The decorator observes and never steers: the
// traced run hard-fails unless its simulation fingerprint equals the
// untraced one.

#include <memory>
#include <mutex>
#include <utility>

#include "harness.hpp"
#include "sim/policy.hpp"

namespace pulse::bench::e2e {

struct CallStats {
  std::uint64_t calls = 0;
  double total_s = 0.0;

  void add(const CallStats& other) noexcept {
    calls += other.calls;
    total_s += other.total_s;
  }
};

/// Totals over every TimedPolicy of one job.
struct PolicyClock {
  std::mutex mutex;  // guards the three totals below
  CallStats on_invocation;
  CallStats end_of_minute;
  CallStats checkpoint;
};

class TimedPolicy final : public sim::KeepAlivePolicy {
 public:
  TimedPolicy(std::unique_ptr<sim::KeepAlivePolicy> inner, PolicyClock& clock)
      : inner_(std::move(inner)), clock_(&clock) {}

  ~TimedPolicy() override {
    const std::lock_guard<std::mutex> lock(clock_->mutex);
    clock_->on_invocation.add(on_invocation_);
    clock_->end_of_minute.add(end_of_minute_);
    clock_->checkpoint.add(checkpoint_);
  }

  TimedPolicy(const TimedPolicy&) = delete;
  TimedPolicy& operator=(const TimedPolicy&) = delete;
  TimedPolicy(TimedPolicy&&) = delete;
  TimedPolicy& operator=(TimedPolicy&&) = delete;

  [[nodiscard]] std::string name() const override { return inner_->name(); }

  void initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                  sim::KeepAliveSchedule& schedule) override {
    inner_->initialize(deployment, trace, schedule);
  }

  void on_invocation(trace::FunctionId f, trace::Minute t,
                     sim::KeepAliveSchedule& schedule) override {
    const Clock::time_point start = Clock::now();
    inner_->on_invocation(f, t, schedule);
    record(on_invocation_, start);
  }

  void end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                     const sim::MemoryHistory& history) override {
    const Clock::time_point start = Clock::now();
    inner_->end_of_minute(t, schedule, history);
    record(end_of_minute_, start);
  }

  [[nodiscard]] std::size_t cold_start_variant(trace::FunctionId f, trace::Minute t,
                                               const sim::Deployment& deployment) const override {
    return inner_->cold_start_variant(f, t, deployment);
  }

  [[nodiscard]] std::uint64_t downgrade_count() const override {
    return inner_->downgrade_count();
  }
  [[nodiscard]] std::uint64_t incident_count() const override {
    return inner_->incident_count();
  }

  [[nodiscard]] std::unique_ptr<sim::PolicyCheckpoint> checkpoint() const override {
    const Clock::time_point start = Clock::now();
    auto snapshot = inner_->checkpoint();
    record(checkpoint_, start);
    return snapshot;
  }

  void restore(const sim::PolicyCheckpoint* snapshot) override { inner_->restore(snapshot); }

  void attach_observer(const obs::Observer* observer) override {
    sim::KeepAlivePolicy::attach_observer(observer);
    inner_->attach_observer(observer);
  }

 private:
  static void record(CallStats& stats, Clock::time_point start) noexcept {
    ++stats.calls;
    stats.total_s += seconds_between(start, Clock::now());
  }

  std::unique_ptr<sim::KeepAlivePolicy> inner_;
  PolicyClock* clock_;
  CallStats on_invocation_;
  CallStats end_of_minute_;
  mutable CallStats checkpoint_;  // checkpoint() is const
};

/// Policy factory for a job: plain make_policy, or wrapped in TimedPolicy
/// when `clock` is non-null.
[[nodiscard]] std::unique_ptr<sim::KeepAlivePolicy> make_job_policy(std::string_view name,
                                                                    PolicyClock* clock);

}  // namespace pulse::bench::e2e
