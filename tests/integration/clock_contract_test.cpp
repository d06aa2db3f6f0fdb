// The clock contract every run frame gives its policy, which PULSE's
// forward-only state (the peak detector's demand stream, the inter-arrival
// trackers' windows) relies on:
//
//   * on_invocation minutes never decrease;
//   * end_of_minute(t) runs exactly once for every minute of the run, in
//     order;
//   * no on_invocation(t) follows end_of_minute(t).
//
// A recording wrapper around PulsePolicy checks it under the minute engine
// (faults and capacity on), the platform simulator, the online server (a
// tick gap and a tick at the largest minute) and the cluster engine with
// shard crashes, whose outage minutes run through SteppedRun::run_outage.

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "core/pulse_policy.hpp"
#include "models/zoo.hpp"
#include "platform/platform.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "trace/workload.hpp"

namespace pulse {
namespace {

struct ClockLog {
  trace::Minute next_close = 0;  // the minute end_of_minute must see next
  trace::Minute last_invocation = std::numeric_limits<trace::Minute>::min();
  std::uint64_t invocations = 0;
  std::vector<std::string> violations;

  void violate(std::string what) {
    if (violations.size() < 8) violations.push_back(std::move(what));
  }
};

/// PulsePolicy, with every call checked against the clock contract.
class ClockRecorder final : public sim::KeepAlivePolicy {
 public:
  explicit ClockRecorder(ClockLog& log) : log_(&log) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void attach_observer(const obs::Observer* observer) override {
    sim::KeepAlivePolicy::attach_observer(observer);
    inner_.attach_observer(observer);
  }
  void initialize(const sim::Deployment& deployment, const trace::Trace& trace,
                  sim::KeepAliveSchedule& schedule) override {
    inner_.initialize(deployment, trace, schedule);
  }

  void on_invocation(trace::FunctionId f, trace::Minute t,
                     sim::KeepAliveSchedule& schedule) override {
    if (t < log_->last_invocation) {
      log_->violate("on_invocation(" + std::to_string(t) + ") after on_invocation(" +
                    std::to_string(log_->last_invocation) + ")");
    }
    if (t < log_->next_close) {
      log_->violate("on_invocation(" + std::to_string(t) + ") after end_of_minute(" +
                    std::to_string(log_->next_close - 1) + ")");
    }
    log_->last_invocation = t;
    ++log_->invocations;
    inner_.on_invocation(f, t, schedule);
  }

  void end_of_minute(trace::Minute t, sim::KeepAliveSchedule& schedule,
                     const sim::MemoryHistory& history) override {
    if (t != log_->next_close) {
      log_->violate("end_of_minute(" + std::to_string(t) + ") where minute " +
                    std::to_string(log_->next_close) + " was due");
    }
    log_->next_close = t + 1;
    inner_.end_of_minute(t, schedule, history);
  }

  [[nodiscard]] std::size_t cold_start_variant(trace::FunctionId f, trace::Minute t,
                                               const sim::Deployment& deployment) const override {
    return inner_.cold_start_variant(f, t, deployment);
  }
  [[nodiscard]] std::uint64_t downgrade_count() const override {
    return inner_.downgrade_count();
  }

 private:
  ClockLog* log_;
  core::PulsePolicy inner_;
};

void expect_contract_held(const ClockLog& log, trace::Minute horizon) {
  for (const std::string& v : log.violations) ADD_FAILURE() << v;
  EXPECT_EQ(log.next_close, horizon) << "end_of_minute did not reach every minute";
  EXPECT_GT(log.invocations, 0u);
}

struct Fixture {
  trace::Trace trace;
  models::ModelZoo zoo;
  sim::Deployment deployment;
};

Fixture make_fixture(std::size_t functions, trace::Minute duration, std::uint64_t seed) {
  trace::WorkloadConfig wc;
  wc.function_count = functions;
  wc.duration = duration;
  wc.seed = seed;
  Fixture fx{trace::build_azure_like_workload(wc).trace, models::ModelZoo::builtin(), {}};
  fx.deployment = sim::Deployment::round_robin(fx.zoo, functions);
  return fx;
}

TEST(ClockContract, MinuteEngineWithFaultsAndCapacity) {
  const Fixture fx = make_fixture(24, 720, 3);
  sim::EngineConfig config;
  config.memory_capacity_mb = fx.deployment.peak_highest_memory_mb() * 0.3;
  config.faults.seed = 7;
  config.faults.crash_rate = 0.02;
  config.faults.cold_start_failure_rate = 0.2;
  config.faults.slo_multiplier = 1.5;
  ClockLog log;
  ClockRecorder policy(log);
  const sim::RunResult r = sim::SimulationEngine(fx.deployment, fx.trace, config).run(policy);
  EXPECT_GT(r.failed_invocations + r.crash_evictions, 0u);
  EXPECT_GT(r.capacity_evictions, 0u);
  expect_contract_held(log, fx.trace.duration());
}

TEST(ClockContract, PlatformSimulator) {
  const Fixture fx = make_fixture(12, 480, 5);
  ClockLog log;
  ClockRecorder policy(log);
  (void)platform::PlatformSimulator(fx.deployment, fx.trace, {}).run(policy);
  expect_contract_held(log, fx.trace.duration());
}

TEST(ClockContract, OnlineServerWithTickGapAndFarFutureTick) {
  const Fixture fx = make_fixture(8, 300, 11);
  ClockLog log;
  ClockRecorder policy(log);
  serve::ServeConfig config;
  config.horizon = fx.trace.duration();
  serve::OnlineServer server(fx.deployment, policy, config);
  const auto deliver = [&](trace::Minute from, trace::Minute to) {
    for (trace::Minute t = from; t < to; ++t) {
      for (trace::FunctionId f = 0; f < fx.trace.function_count(); ++f) {
        const std::uint32_t n = fx.trace.count(f, t);
        if (n > 0) server.ingest({serve::EventKind::kInvocation, t, f, n});
      }
    }
  };
  deliver(0, 120);
  server.ingest({serve::EventKind::kTick, 40, 0, 0});   // closes 0..40 at once
  server.ingest({serve::EventKind::kTick, 119, 0, 0});  // a gap of 79 minutes
  deliver(120, fx.trace.duration());
  server.ingest({serve::EventKind::kTick, std::numeric_limits<trace::Minute>::max(), 0, 0});
  EXPECT_EQ(server.open_minute(), fx.trace.duration());
  EXPECT_EQ(server.finish().invocations, fx.trace.total_invocations());
  expect_contract_held(log, fx.trace.duration());
}

TEST(ClockContract, ClusterEngineWithShardCrashes) {
  const Fixture fx = make_fixture(48, 720, 13);
  cluster::ClusterConfig config;
  config.shards = 4;
  config.engine.seed = 99;
  config.engine.memory_capacity_mb = fx.deployment.peak_highest_memory_mb() * 0.35;
  config.market.rebalance_interval = 30;
  config.shard_faults.crash_rate = 0.004;
  config.shard_faults.recovery_epochs = 2;
  config.shard_faults.stall_rate = 0.05;

  std::vector<std::unique_ptr<ClockLog>> logs;
  cluster::ClusterEngine engine(fx.deployment, fx.trace, config);
  const cluster::ClusterResult r = engine.run([&]() -> std::unique_ptr<sim::KeepAlivePolicy> {
    logs.push_back(std::make_unique<ClockLog>());
    return std::make_unique<ClockRecorder>(*logs.back());
  });
  ASSERT_GT(r.shard_crashes, 0u) << "the fixture should crash a shard";
  trace::Minute outage_minutes = 0;
  for (const cluster::ShardFailure& f : r.failures) {
    outage_minutes += (f.recovery_minute >= 0 ? f.recovery_minute : fx.trace.duration()) -
                      f.crash_minute;
  }
  EXPECT_GT(outage_minutes, 0);
  ASSERT_EQ(logs.size(), config.shards);
  for (std::size_t s = 0; s < logs.size(); ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    expect_contract_held(*logs[s], fx.trace.duration());
  }
}

}  // namespace
}  // namespace pulse
