// Fault resilience: per-policy degradation curves under injected faults.
//
// The paper's replay is fault-free; this bench answers the production
// question it leaves open — what happens to cost/service-time/accuracy when
// containers crash, cold starts fail, and invocations time out?
//   (1) Shard-fault cluster sweep: whole worker shards crash (stopping at
//       the crash minute, losing their warm pool) and recover while the
//       capacity market runs degraded;
//       keep-alive cost and SLO violations vs shard MTBF, per policy. The
//       market's exact quota conservation across such a sweep is a ctest
//       (ShardFaultCluster.QuotaTotalIsBitEqualAcrossCrashSweep).
//   (2) Zero-fault equivalence: a zero-rate injector reproduces the
//       fault-free numbers exactly (the invariant the tests pin down).
//   (3) Crash/cold-start/timeout sweeps: cost & accuracy degradation
//       curves per policy, with the new RunResult fault counters.
//   (4) Guard demonstration: a diverging predictor kills an unguarded run;
//       the same policy under fault::GuardedPolicy completes with the
//       incident counted and fixed-keep-alive fallback behaviour.
//
// Usage: bench_fault_resilience [--quick] [google-benchmark flags]
// --quick runs a short shard-fault sweep and skips everything else.

#include "bench_common.hpp"

#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "cluster/cluster_engine.hpp"
#include "fault/diverging_policy.hpp"
#include "fault/guarded_policy.hpp"
#include "fault/injector.hpp"
#include "policies/factory.hpp"
#include "sim/engine.hpp"
#include "trace/workload.hpp"

namespace {

using namespace pulse;

// ---------------------------------------------------------------------------
// Shard-fault cluster sweep
// ---------------------------------------------------------------------------

struct ShardFaultRow {
  const char* policy = "pulse";
  double crash_rate = 0.0;  // per shard-minute; MTBF = 1/rate minutes
  double cost_usd = 0.0;
  std::uint64_t cold_starts = 0;
  std::uint64_t failed = 0;
  std::uint64_t crashes = 0;
  std::uint64_t recoveries = 0;
  /// Latency SLO misses (cold starts) plus availability misses (failed
  /// arrivals during shard outages).
  [[nodiscard]] std::uint64_t slo_violations() const { return cold_starts + failed; }
  [[nodiscard]] double mtbf_minutes() const {
    return crash_rate > 0.0 ? 1.0 / crash_rate : 0.0;  // 0 = never
  }
};

ShardFaultRow run_shard_fault_point(const trace::Workload& workload,
                                    const sim::Deployment& deployment,
                                    const char* policy, double crash_rate) {
  cluster::ClusterConfig cc;
  cc.shards = 4;
  cc.engine.seed = 42;
  cc.engine.memory_capacity_mb = deployment.peak_highest_memory_mb() * 0.35;
  cc.market.rebalance_interval = 30;
  cc.shard_faults.crash_rate = crash_rate;
  cc.shard_faults.recovery_epochs = 2;
  cc.shard_faults.stall_rate = 0.02;

  cluster::ClusterEngine engine(deployment, workload.trace, cc);
  const cluster::ClusterResult result =
      engine.run([policy] { return policies::make_policy(policy); });

  const sim::RunTotals totals = result.totals();

  ShardFaultRow row;
  row.policy = policy;
  row.crash_rate = crash_rate;
  row.cost_usd = result.total_keepalive_cost_usd();
  row.cold_starts = totals.cold_starts;
  row.failed = totals.failed_invocations;
  row.crashes = result.shard_crashes;
  row.recoveries = result.shard_recoveries;
  return row;
}

void run_shard_fault_sweep(bool quick) {
  bench::print_heading("Shard-fault resilience — crashes, rollback-free recovery,"
                       " degraded market",
                       "keep-alive cost and SLO violations vs shard MTBF");

  std::vector<double> rates;
  std::vector<const char*> sweep_policies;
  std::size_t functions = 0;
  trace::Minute duration = 0;
  if (quick) {
    rates = {0.0, 1.0 / 720.0};
    sweep_policies = {"pulse", "openwhisk"};
    functions = 2000;
    duration = 360;
  } else {
    rates = {0.0, 1.0 / 2880.0, 1.0 / 1440.0, 1.0 / 360.0};
    sweep_policies = {"pulse", "openwhisk", "icebreaker"};
    functions = 10000;
    duration = 1440;
  }

  trace::WorkloadConfig wc;
  wc.function_count = functions;
  wc.duration = duration;
  wc.seed = 11;
  const trace::Workload workload = trace::build_azure_like_workload(wc);
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, functions);

  std::printf("%zu functions, %lld minutes, 4 shards, market interval 30,"
              " recovery 2 epochs\n\n",
              functions, static_cast<long long>(duration));
  std::printf("%12s %12s %10s %12s %12s %8s %8s %10s\n", "policy", "MTBF(min)",
              "cost ($)", "cold", "failed", "crashes", "recover", "slo_viol");

  for (const char* policy : sweep_policies) {
    for (const double rate : rates) {
      const ShardFaultRow row = run_shard_fault_point(workload, deployment, policy, rate);
      std::printf("%12s %12.0f %10.2f %12llu %12llu %8llu %8llu %10llu\n", row.policy,
                  row.mtbf_minutes(), row.cost_usd,
                  static_cast<unsigned long long>(row.cold_starts),
                  static_cast<unsigned long long>(row.failed),
                  static_cast<unsigned long long>(row.crashes),
                  static_cast<unsigned long long>(row.recoveries),
                  static_cast<unsigned long long>(row.slo_violations()));
    }
  }
}

sim::RunResult run_with_faults(const exp::Scenario& scenario, const std::string& policy_name,
                               const fault::FaultConfig& faults) {
  const sim::Deployment deployment = sim::Deployment::round_robin(
      scenario.zoo, scenario.workload.trace.function_count());
  sim::EngineConfig config;
  config.faults = faults;
  sim::SimulationEngine engine(deployment, scenario.workload.trace, config);
  const auto policy = policies::make_policy(policy_name);
  return engine.run(*policy);
}

void print_zero_fault_equivalence(const exp::Scenario& scenario) {
  const sim::RunResult base = run_with_faults(scenario, "pulse", fault::FaultConfig{});
  fault::FaultConfig zero;
  zero.seed = 999;  // a different fault seed must not matter at zero rates
  const sim::RunResult zeroed = run_with_faults(scenario, "pulse", zero);
  const bool identical = base.total_keepalive_cost_usd == zeroed.total_keepalive_cost_usd &&
                         base.total_service_time_s == zeroed.total_service_time_s &&
                         base.accuracy_pct_sum == zeroed.accuracy_pct_sum &&
                         base.cold_starts == zeroed.cold_starts;
  std::printf(
      "\nZero-fault equivalence: cost %.4f vs %.4f, service %.1f vs %.1f -> %s\n",
      base.total_keepalive_cost_usd, zeroed.total_keepalive_cost_usd,
      base.total_service_time_s, zeroed.total_service_time_s,
      identical ? "bitwise identical" : "MISMATCH (regression!)");
}

void print_crash_sweep(const exp::Scenario& scenario) {
  std::printf("\nContainer-crash sweep (per kept-container-minute crash probability):\n\n");
  const double rates[] = {0.0, 0.0005, 0.002, 0.01};
  for (const char* policy : {"openwhisk", "pulse", "guarded:pulse"}) {
    util::TextTable table({"crash rate", "Cost ($)", "Service (s)", "Accuracy (%)",
                           "Warm (%)", "Crash evictions", "Degraded min"});
    for (double rate : rates) {
      fault::FaultConfig faults;
      faults.crash_rate = rate;
      const sim::RunResult r = run_with_faults(scenario, policy, faults);
      table.add_row({util::fmt(rate, 4), util::fmt(r.total_keepalive_cost_usd),
                     util::fmt(r.total_service_time_s, 0), util::fmt(r.average_accuracy_pct()),
                     util::fmt(100.0 * r.warm_start_fraction(), 1),
                     std::to_string(r.crash_evictions), std::to_string(r.degraded_minutes)});
    }
    std::printf("policy: %s\n%s\n", policy, table.render().c_str());
  }
}

void print_cold_start_sweep(const exp::Scenario& scenario) {
  std::printf(
      "\nCold-start failure sweep (per-attempt failure probability; 3 retries with\n"
      "exponential backoff, then the minute's invocations fail):\n\n");
  util::TextTable table({"fail rate", "Policy", "Failed", "Retries", "Fail (%)",
                         "Service (s)", "Cost ($)"});
  for (double rate : {0.0, 0.05, 0.2, 0.5}) {
    for (const char* policy : {"openwhisk", "pulse"}) {
      fault::FaultConfig faults;
      faults.cold_start_failure_rate = rate;
      const sim::RunResult r = run_with_faults(scenario, policy, faults);
      table.add_row({util::fmt(rate, 2), policy, std::to_string(r.failed_invocations),
                     std::to_string(r.retries), util::fmt(100.0 * r.failed_fraction(), 2),
                     util::fmt(r.total_service_time_s, 0),
                     util::fmt(r.total_keepalive_cost_usd)});
    }
  }
  std::printf("%s", table.render().c_str());
}

void print_timeout_sweep(const exp::Scenario& scenario) {
  std::printf(
      "\nSLO-timeout sweep (deadline = multiplier x expected per-variant service\n"
      "time; timed-out invocations deliver no accuracy):\n\n");
  util::TextTable table({"SLO x", "Policy", "Timeouts", "Accuracy (%)", "Service (s)"});
  for (double slo : {0.0, 2.0, 1.5, 1.1}) {
    for (const char* policy : {"openwhisk", "pulse"}) {
      fault::FaultConfig faults;
      faults.slo_multiplier = slo;
      const sim::RunResult r = run_with_faults(scenario, policy, faults);
      table.add_row({util::fmt(slo, 1), policy, std::to_string(r.timeouts),
                     util::fmt(r.average_accuracy_pct()),
                     util::fmt(r.total_service_time_s, 0)});
    }
  }
  std::printf("%s", table.render().c_str());
}

void print_guard_demonstration(const exp::Scenario& scenario) {
  std::printf(
      "\nGuard demonstration — ARIMA divergence at minute 120 (NaN forecast):\n\n");
  const sim::Deployment deployment = sim::Deployment::round_robin(
      scenario.zoo, scenario.workload.trace.function_count());
  fault::DivergingPolicy::Config diverge;
  diverge.diverge_at = 120;

  {
    sim::SimulationEngine engine(deployment, scenario.workload.trace, {});
    fault::DivergingPolicy unguarded(policies::make_policy("pulse"), diverge);
    try {
      const sim::RunResult r = engine.run(unguarded);
      std::printf("  unguarded: completed?! cost %.2f (unexpected)\n",
                  r.total_keepalive_cost_usd);
    } catch (const std::exception& e) {
      std::printf("  unguarded: run ABORTED — %s\n", e.what());
    }
  }
  {
    sim::SimulationEngine engine(deployment, scenario.workload.trace, {});
    fault::GuardedPolicy guarded(
        std::make_unique<fault::DivergingPolicy>(policies::make_policy("pulse"), diverge));
    const sim::RunResult r = engine.run(guarded);
    std::printf(
        "  guarded:   run completed — cost %.2f, accuracy %.2f%%, %llu incident(s)\n"
        "             absorbed, degraded to fixed keep-alive since minute %lld\n",
        r.total_keepalive_cost_usd, r.average_accuracy_pct(),
        static_cast<unsigned long long>(r.guard_incidents),
        static_cast<long long>(guarded.degraded_since()));
  }
}

void BM_InjectorDecisions(benchmark::State& state) {
  fault::FaultConfig config;
  config.crash_rate = 0.01;
  config.cold_start_failure_rate = 0.1;
  const fault::FaultInjector injector(config);
  std::uint64_t sink = 0;
  trace::Minute t = 0;
  for (auto _ : state) {
    sink += injector.container_crashes(3, t) ? 1 : 0;
    sink += injector.cold_start(5, t).retries;
    ++t;
  }
  benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_InjectorDecisions);

void BM_EngineMinuteWithFaults(benchmark::State& state) {
  exp::ScenarioConfig config;
  config.days = 1;
  const exp::Scenario scenario = exp::make_scenario(config);
  const sim::Deployment deployment = sim::Deployment::round_robin(
      scenario.zoo, scenario.workload.trace.function_count());
  fault::FaultConfig faults;
  if (state.range(0)) {
    faults.crash_rate = 0.002;
    faults.cold_start_failure_rate = 0.05;
    faults.slo_multiplier = 3.0;
  }
  sim::EngineConfig engine_config;
  engine_config.faults = faults;
  for (auto _ : state) {
    sim::SimulationEngine engine(deployment, scenario.workload.trace, engine_config);
    const auto policy = policies::make_policy("pulse");
    const sim::RunResult r = engine.run(*policy);
    benchmark::DoNotOptimize(r.total_keepalive_cost_usd);
  }
}
BENCHMARK(BM_EngineMinuteWithFaults)->Arg(0)->Arg(1);

}  // namespace

int main(int argc, char** argv) {
  using namespace pulse;

  bool quick = false;
  // Strip our flag; everything else passes through to google-benchmark.
  std::vector<char*> bench_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else {
      bench_argv.push_back(argv[i]);
    }
  }

  run_shard_fault_sweep(quick);
  if (quick) return 0;

  bench::print_heading("Fault resilience — policy degradation under injected faults",
                       "beyond the paper: production fault model (crashes, retries, SLOs)");
  exp::ScenarioConfig config;
  config.days = exp::bench_trace_days(3);
  const exp::Scenario scenario = exp::make_scenario(config);
  bench::print_scenario_info(scenario, 1);

  print_zero_fault_equivalence(scenario);
  print_crash_sweep(scenario);
  print_cold_start_sweep(scenario);
  print_timeout_sweep(scenario);
  print_guard_demonstration(scenario);
  int bench_argc = static_cast<int>(bench_argv.size());
  return bench::run_microbenchmarks(bench_argc, bench_argv.data());
}
