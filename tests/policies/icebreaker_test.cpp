#include "policies/icebreaker.hpp"

#include <gtest/gtest.h>

#include <map>
#include <utility>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "sim/engine.hpp"
#include "trace/workload.hpp"

namespace pulse::policies {
namespace {

/// Drives a policy through a trace manually (invocations + end_of_minute),
/// mirroring the engine's calling convention, so schedule state can be
/// inspected mid-run.
class ManualDriver {
 public:
  ManualDriver(sim::KeepAlivePolicy& policy, const sim::Deployment& deployment,
               const trace::Trace& trace, sim::KeepAliveSchedule& schedule)
      : policy_(policy), trace_(trace), schedule_(schedule), history_() {
    policy.initialize(deployment, trace, schedule);
  }

  void run_until(trace::Minute end) {
    for (; now_ < end; ++now_) {
      for (trace::FunctionId f = 0; f < trace_.function_count(); ++f) {
        if (trace_.count(f, now_) > 0) policy_.on_invocation(f, now_, schedule_);
      }
      policy_.end_of_minute(now_, schedule_, history_);
      history_.push(schedule_.memory_at(now_));
    }
  }

 private:
  class VecHistory final : public sim::MemoryHistory {
   public:
    void push(double v) { values_.push_back(v); }
    [[nodiscard]] double memory_at(trace::Minute t) const override {
      if (t < 0 || static_cast<std::size_t>(t) >= values_.size()) return 0.0;
      return values_[static_cast<std::size_t>(t)];
    }
    [[nodiscard]] trace::Minute now() const override {
      return static_cast<trace::Minute>(values_.size());
    }

   private:
    std::vector<double> values_;
  };

  sim::KeepAlivePolicy& policy_;
  const trace::Trace& trace_;
  sim::KeepAliveSchedule& schedule_;
  VecHistory history_;
  trace::Minute now_ = 0;
};

class IceBreakerTest : public ::testing::Test {
 protected:
  IceBreakerTest()
      : zoo_(models::ModelZoo::builtin()),
        deployment_(sim::Deployment::round_robin(zoo_, 1)),
        trace_(1, 1200),
        schedule_(deployment_, 1200) {}

  models::ModelZoo zoo_;
  sim::Deployment deployment_;
  trace::Trace trace_;
  sim::KeepAliveSchedule schedule_;
};

TEST_F(IceBreakerTest, WarmsPeriodicFunctionAhead) {
  // Strong period-10 signal: one invocation every 10 minutes.
  for (trace::Minute m = 0; m < 1200; m += 10) trace_.set_count(0, m, 2);
  IceBreakerPolicy p;
  ManualDriver driver(p, deployment_, trace_, schedule_);
  driver.run_until(1060);

  // After a long history the predictor should keep the function warm at
  // (or around) the invocation minutes of the late trace.
  std::size_t warm_at_invocations = 0;
  std::size_t checked = 0;
  for (trace::Minute m = 1000; m < 1060; m += 10) {
    ++checked;
    if (schedule_.is_alive(0, m)) ++warm_at_invocations;
  }
  EXPECT_GE(warm_at_invocations, checked / 2);
}

TEST_F(IceBreakerTest, SilentFunctionStaysCold) {
  IceBreakerPolicy p;
  ManualDriver driver(p, deployment_, trace_, schedule_);
  driver.run_until(500);
  for (trace::Minute m = 400; m < 500; ++m) {
    EXPECT_FALSE(schedule_.is_alive(0, m));
  }
}

TEST_F(IceBreakerTest, PlainIceBreakerWarmsHighestOnly) {
  for (trace::Minute m = 0; m < 1200; m += 5) trace_.set_count(0, m, 1);
  IceBreakerPolicy p;
  ManualDriver driver(p, deployment_, trace_, schedule_);
  driver.run_until(800);
  const int high = static_cast<int>(deployment_.family_of(0).highest_index());
  for (trace::Minute m = 0; m < 810; ++m) {
    const int v = schedule_.variant_at(0, m);
    if (v != sim::kNoVariant) {
      EXPECT_EQ(v, high);
    }
  }
}

TEST_F(IceBreakerTest, PulseIntegrationUsesLadder) {
  // A weaker-intensity periodic function: predicted likelihood below 1
  // maps to a lower variant under PULSE's thresholds for some minutes.
  for (trace::Minute m = 0; m < 1200; m += 3) trace_.set_count(0, m, 1);
  IceBreakerPulsePolicy p;
  ManualDriver driver(p, deployment_, trace_, schedule_);
  driver.run_until(800);
  const int high = static_cast<int>(deployment_.family_of(0).highest_index());
  bool any_non_highest = false;
  for (trace::Minute m = 700; m < 810; ++m) {
    const int v = schedule_.variant_at(0, m);
    if (v != sim::kNoVariant && v != high) any_non_highest = true;
  }
  EXPECT_TRUE(any_non_highest);
}

TEST_F(IceBreakerTest, IntegrationReducesCostOnWorkload) {
  trace::WorkloadConfig wconfig;
  wconfig.function_count = 6;
  wconfig.duration = 2 * trace::kMinutesPerDay;
  const auto workload = trace::build_azure_like_workload(wconfig);
  const auto d = sim::Deployment::round_robin(zoo_, 6);
  sim::EngineConfig config;
  config.deterministic_latency = true;
  sim::SimulationEngine engine(d, workload.trace, config);

  IceBreakerPolicy plain;
  IceBreakerPulsePolicy integrated;
  const auto plain_result = engine.run(plain);
  const auto integrated_result = engine.run(integrated);
  EXPECT_LT(integrated_result.total_keepalive_cost_usd,
            plain_result.total_keepalive_cost_usd);
}

TEST_F(IceBreakerTest, RefreshIntervalConfigRespected) {
  for (trace::Minute m = 0; m < 1200; m += 2) trace_.set_count(0, m, 1);
  IceBreakerPolicy::Config config;
  config.refresh_interval = 5;
  IceBreakerPolicy p(config);
  ManualDriver driver(p, deployment_, trace_, schedule_);
  driver.run_until(200);
  // The schedule beyond now + refresh_interval must be untouched.
  for (trace::Minute m = 206; m < 1200; ++m) {
    EXPECT_FALSE(schedule_.is_alive(0, m)) << "minute " << m;
  }
}

/// Records every refit (function, minute) on its way to the schedule.
class RefitRecorder final : public IceBreakerPolicy {
 public:
  using IceBreakerPolicy::IceBreakerPolicy;
  std::vector<std::pair<trace::FunctionId, trace::Minute>> refits;

 protected:
  void apply_forecast(trace::FunctionId f, trace::Minute t, const std::vector<double>& predicted,
                      sim::KeepAliveSchedule& schedule) override {
    EXPECT_EQ(predicted.size(), static_cast<std::size_t>(config_.refresh_interval));
    refits.emplace_back(f, t);
    IceBreakerPolicy::apply_forecast(f, t, predicted, schedule);
  }
};

TEST(IceBreakerStagger, EveryFunctionRefitsOncePerIntervalAndMinutesStayBalanced) {
  constexpr std::size_t kFunctions = 23;
  constexpr trace::Minute kMinutes = 300;
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, kFunctions);
  trace::Trace trace(kFunctions, kMinutes);
  for (trace::FunctionId f = 0; f < kFunctions; ++f) {
    for (trace::Minute m = static_cast<trace::Minute>(f); m < kMinutes; m += 7) {
      trace.set_count(f, m, 1);
    }
  }
  for (const trace::Minute interval : {trace::Minute{1}, trace::Minute{4}, trace::kKeepAliveWindow,
                                       trace::Minute{30}}) {
    SCOPED_TRACE("refresh_interval " + std::to_string(interval));
    sim::KeepAliveSchedule schedule(deployment, kMinutes);
    obs::RingBufferSink sink(1 << 12);
    obs::MetricsRegistry registry;
    obs::Observer observer;
    observer.sink = &sink;
    observer.metrics = &registry;
    RefitRecorder p(IceBreakerPolicy::Config{interval});
    p.attach_observer(&observer);
    ManualDriver driver(p, deployment, trace, schedule);
    driver.run_until(kMinutes);

    // Each whole interval [k*R, (k+1)*R) refits each function exactly once,
    // at the minute with (t + 1 + f) % R == 0.
    const auto r = static_cast<std::size_t>(interval);
    std::map<std::pair<trace::FunctionId, trace::Minute>, int> per_interval;
    std::map<trace::Minute, std::size_t> per_minute;
    for (const auto& [f, t] : p.refits) {
      EXPECT_EQ((static_cast<std::size_t>(t) + 1 + f) % r, 0u) << "f=" << f << " t=" << t;
      ++per_interval[{f, t / interval}];
      ++per_minute[t];
    }
    const trace::Minute whole = kMinutes / interval;
    for (trace::FunctionId f = 0; f < kFunctions; ++f) {
      for (trace::Minute k = 0; k < whole; ++k) {
        EXPECT_EQ((per_interval[{f, k}]), 1) << "f=" << f << " interval " << k;
      }
    }
    const std::size_t bound = (kFunctions + r - 1) / r;
    for (const auto& [t, count] : per_minute) EXPECT_LE(count, bound) << "t=" << t;

    // One forecast_refresh event per minute that refits, valued at its
    // refit count; icebreaker.refreshes counts refits.
    std::size_t events = 0;
    for (const obs::TraceEvent& e : sink.events()) {
      if (e.type != obs::EventType::kPolicyDecision) continue;
      ++events;
      EXPECT_EQ(e.value, static_cast<double>(per_minute[e.minute])) << "t=" << e.minute;
    }
    EXPECT_EQ(events, per_minute.size());
    EXPECT_EQ(registry.snapshot().counter_or("icebreaker.refreshes"), p.refits.size());
  }
}

}  // namespace
}  // namespace pulse::policies
