// Scalability, two layers:
//
// (1) Single-engine: "PULSE's overhead remains minimal even when handling
//     a large number of concurrent functions" (§V, Overhead). Sweeps the
//     function count and reports decision overhead per invocation plus the
//     overhead / service-time ratio, for PULSE and MILP.
// (2) Sharded cluster: the ClusterEngine at 10k-1M functions across 1-8
//     shards, faults and observability enabled, capacity market active.
//     Reports wall time, throughput, rebalance activity,
//     speedup vs 1 shard and parallel efficiency against the ideal
//     min(shards, hardware cores).
//
// Usage: bench_scalability [--quick] [--full] [google-benchmark flags]
// --quick runs only the 10k-function, 1 vs 8 shard rows and skips the
// rest; --full adds the million-function row.

#include "bench_common.hpp"

#include <chrono>
#include <cstring>
#include <thread>

#include "cluster/cluster_engine.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_sink.hpp"
#include "policies/factory.hpp"
#include "sim/engine.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace {

using namespace pulse;

struct ScaleRow {
  double overhead_us_per_invocation = 0.0;
  double overhead_over_service = 0.0;
};

ScaleRow run_scale(const std::string& policy, std::size_t functions) {
  trace::WorkloadConfig wconfig;
  wconfig.function_count = functions;
  wconfig.duration = trace::kMinutesPerDay;
  wconfig.seed = 11;
  const trace::Workload workload = trace::build_azure_like_workload(wconfig);

  const models::ModelZoo zoo = models::ModelZoo::builtin();
  util::Pcg32 rng(5);
  const sim::Deployment deployment = sim::Deployment::random(zoo, functions, rng);

  obs::PhaseProfiler profiler;
  sim::EngineConfig config;
  config.deterministic_latency = true;
  config.observer.profiler = &profiler;
  sim::SimulationEngine engine(deployment, workload.trace, config);
  const auto p = policies::make_policy(policy);
  const sim::RunResult r = engine.run(*p);

  ScaleRow row;
  row.overhead_us_per_invocation =
      r.invocations ? 1e6 * r.policy_overhead_s / static_cast<double>(r.invocations) : 0.0;
  row.overhead_over_service = r.overhead_over_service_time();
  return row;
}

void BM_PulseScale(benchmark::State& state) {
  const auto functions = static_cast<std::size_t>(state.range(0));
  trace::WorkloadConfig wconfig;
  wconfig.function_count = functions;
  wconfig.duration = 360;  // six hours per iteration keeps timings honest
  const trace::Workload workload = trace::build_azure_like_workload(wconfig);
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, functions);
  for (auto _ : state) {
    sim::SimulationEngine engine(deployment, workload.trace, {});
    const auto policy = policies::make_policy("pulse");
    benchmark::DoNotOptimize(engine.run(*policy));
  }
  state.SetComplexityN(static_cast<std::int64_t>(functions));
}
BENCHMARK(BM_PulseScale)->Arg(12)->Arg(24)->Arg(48)->Arg(96)->Complexity();

// ---------------------------------------------------------------------------
// Sharded cluster scaling
// ---------------------------------------------------------------------------

struct ClusterRow {
  std::size_t functions = 0;
  trace::Minute duration = 0;
  std::size_t shards = 0;
  const char* policy = "pulse";
  double wall_s = 0.0;
  std::uint64_t transfers = 0;
  std::uint64_t rebalance_epochs = 0;
  double speedup_vs_1shard = 0.0;  // filled once the 1-shard row exists
  double ideal_speedup = 1.0;
  [[nodiscard]] double function_minutes_per_sec() const {
    return wall_s > 0.0
               ? static_cast<double>(functions) * static_cast<double>(duration) / wall_s
               : 0.0;
  }
  [[nodiscard]] double efficiency() const {
    return ideal_speedup > 0.0 ? speedup_vs_1shard / ideal_speedup : 0.0;
  }
};

/// One timed ClusterEngine run with the acceptance configuration: capacity
/// market active, fault injection on, full observability attached.
ClusterRow run_cluster_scale(const trace::Workload& workload,
                             const sim::Deployment& deployment, std::size_t shards,
                             std::size_t cores, const char* policy) {
  cluster::ClusterConfig cc;
  cc.shards = shards;
  cc.engine.seed = 42;
  cc.engine.memory_capacity_mb = deployment.peak_highest_memory_mb() * 0.35;
  cc.engine.faults.crash_rate = 0.01;
  cc.engine.faults.cold_start_failure_rate = 0.05;
  cc.engine.faults.slo_multiplier = 3.0;

  obs::RingBufferSink sink(1 << 16);
  obs::MetricsRegistry registry;
  obs::PhaseProfiler profiler;
  cc.engine.observer.sink = &sink;
  cc.engine.observer.metrics = &registry;
  cc.engine.observer.profiler = &profiler;

  cluster::ClusterEngine engine(deployment, workload.trace, cc);

  const auto start = std::chrono::steady_clock::now();
  const cluster::ClusterResult result =
      engine.run([policy] { return policies::make_policy(policy); });
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;

  ClusterRow row;
  row.policy = policy;
  row.functions = workload.trace.function_count();
  row.duration = workload.trace.duration();
  row.shards = shards;
  row.wall_s = elapsed.count();
  row.transfers = result.transfers;
  row.rebalance_epochs = result.rebalance_epochs;
  row.ideal_speedup = static_cast<double>(std::min(shards, cores));
  return row;
}

// Full "pulse" runs its cross-function optimizer once per minute over the
// whole shard population — cost superlinear in shard size, which is
// exactly what sharding amortizes (the 10k showcase point measures that
// win). The large sweep points use the per-function-only variant so the
// 1-shard baseline stays feasible and the rows isolate the cluster
// machinery itself: partitioning, barriers, the market, observability.
struct ClusterSweepPoint {
  std::size_t functions;
  trace::Minute duration;
  const char* policy;
};

void run_cluster_sweep(bool quick, bool full) {
  const std::size_t cores =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());

  std::vector<ClusterSweepPoint> points;
  std::vector<std::size_t> shard_counts;
  if (quick) {
    points = {{10000, 180, "pulse"}};
    shard_counts = {1, 8};
  } else {
    points = {{10000, 180, "pulse"},
              {10000, 360, "pulse-individual"},
              {100000, 360, "pulse-individual"}};
    shard_counts = {1, 2, 4, 8};
    if (full) points.push_back({1000000, 240, "pulse-individual"});
  }

  bench::print_heading("Cluster scaling — sharded engine + capacity market",
                       "PULSE at cluster scale: 10k-1M functions, 1-8 shards");
  std::printf("hardware cores: %zu (ideal speedup = min(shards, cores))\n\n", cores);
  std::printf("%10s %8s %18s %7s %10s %14s %9s %9s %8s %8s\n", "functions", "minutes",
              "policy", "shards", "wall_s", "fn-min/s", "epochs", "trades", "speedup",
              "eff");

  for (const ClusterSweepPoint& point : points) {
    trace::WorkloadConfig wc;
    wc.function_count = point.functions;
    wc.duration = point.duration;
    wc.seed = 11;
    const trace::Workload workload = trace::build_azure_like_workload(wc);
    const models::ModelZoo zoo = models::ModelZoo::builtin();
    const sim::Deployment deployment =
        sim::Deployment::round_robin(zoo, point.functions);

    double wall_1shard = 0.0;
    for (const std::size_t shards : shard_counts) {
      ClusterRow row = run_cluster_scale(workload, deployment, shards, cores, point.policy);
      if (shards == 1) wall_1shard = row.wall_s;
      row.speedup_vs_1shard = row.wall_s > 0.0 && wall_1shard > 0.0
                                  ? wall_1shard / row.wall_s
                                  : 0.0;
      std::printf("%10zu %8lld %18s %7zu %10.2f %14.0f %9llu %9llu %7.2fx %8.2f\n",
                  row.functions, static_cast<long long>(row.duration), row.policy,
                  row.shards, row.wall_s, row.function_minutes_per_sec(),
                  static_cast<unsigned long long>(row.rebalance_epochs),
                  static_cast<unsigned long long>(row.transfers), row.speedup_vs_1shard,
                  row.efficiency());
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pulse;

  bool quick = false;
  bool full = false;
  // Strip our flags; everything else passes through to google-benchmark.
  std::vector<char*> bench_argv{argv[0]};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      full = true;
    } else {
      bench_argv.push_back(argv[i]);
    }
  }

  run_cluster_sweep(quick, full);
  if (quick) return 0;

  bench::print_heading("Scalability — PULSE decision overhead vs concurrent functions",
                       "PULSE paper, §V 'Overhead' scalability claim");

  util::TextTable table({"Functions", "PULSE overhead (us/invocation)",
                         "PULSE overhead/svc", "MILP overhead (us/invocation)",
                         "MILP overhead/svc"});
  for (std::size_t functions : {12u, 24u, 48u, 96u, 192u}) {
    const ScaleRow pulse = run_scale("pulse", functions);
    const ScaleRow milp = run_scale("milp", functions);
    table.add_row({std::to_string(functions), util::fmt(pulse.overhead_us_per_invocation),
                   util::fmt(pulse.overhead_over_service * 1e6, 2) + "e-6",
                   util::fmt(milp.overhead_us_per_invocation),
                   util::fmt(milp.overhead_over_service * 1e6, 2) + "e-6"});
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nExpected shape (paper): PULSE's per-invocation overhead stays in the\n"
      "microseconds range as the function count grows; MILP grows faster\n"
      "(branch-and-bound over more items per peak).\n");

  int bench_argc = static_cast<int>(bench_argv.size());
  return bench::run_microbenchmarks(bench_argc, bench_argv.data());
}
