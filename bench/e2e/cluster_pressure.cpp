// cluster-pressure: 10,000 functions (a 2,500-function, 1-day Azure-like
// base composed into four tenants, the last an aggressor that bursts) on 8
// shards, capacity at 10% of the all-highest-variant peak, container and
// shard faults on, metrics registry and ring-buffer sink attached, policy
// PULSE. Nearly all capacity-eviction, market, checkpoint/replay and obs
// emission work of the benchmark happens here.

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "cluster/cluster_engine.hpp"
#include "exp/scenario.hpp"
#include "harness.hpp"
#include "obs/trace_sink.hpp"
#include "timed_policy.hpp"
#include "trace/workload.hpp"

namespace pulse::bench::e2e {
namespace {

constexpr std::size_t kBaseFunctions = 2500;
constexpr std::size_t kTenants = 4;
constexpr std::size_t kShards = 8;
constexpr double kCapacityShare = 0.10;

class ClusterPressure final : public Workload {
 public:
  explicit ClusterPressure(const WorkloadOptions& options)
      : threads_(options.threads), zoo_(models::ModelZoo::builtin()) {}

  void setup(std::uint64_t seed) override {
    trace::WorkloadConfig base_config;
    base_config.function_count = kBaseFunctions;
    base_config.duration = trace::kMinutesPerDay;
    base_config.seed = seed;
    const trace::Trace base = trace::build_azure_like_workload(base_config).trace;

    exp::MultiTenantConfig tenants;
    tenants.tenants = kTenants;
    tenants.seed = seed;
    trace_ = exp::compose_multi_tenant(base, tenants);

    util::Pcg32 rng(seed, /*stream=*/17);
    deployment_ = sim::Deployment::random(zoo_, trace_.function_count(), rng);
    total_invocations_ = trace_.total_invocations();
    seed_ = seed;
  }

  JobResult run_job(const JobContext& ctx) override {
    JobResult job;
    job.operations = 1;  // one cluster job

    const double capacity_mb = kCapacityShare * deployment_.peak_highest_memory_mb();
    cluster::ClusterConfig config;
    config.shards = kShards;
    config.threads = threads_;
    config.engine.seed = seed_;
    config.engine.hashed_rng = true;
    config.engine.memory_capacity_mb = capacity_mb;
    config.engine.faults.seed = seed_;
    config.engine.faults.crash_rate = 0.01;
    config.engine.faults.cold_start_failure_rate = 0.05;
    config.engine.faults.slo_multiplier = 3.0;
    // Shard crashes keep the default fault seed, so every --seed replays the
    // same crash schedule: seeded, the count ranged 1-9 over ten seeds and
    // about 1% of seeds would crash no shard at all, leaving replay untested.
    config.shard_faults.crash_rate = 0.0005;

    obs::RingBufferSink sink(1 << 16);
    obs::MetricsRegistry registry;
    obs::PhaseProfiler profiler;
    PolicyClock clock;
    config.engine.observer.sink = &sink;
    config.engine.observer.metrics = &registry;
    if (ctx.traced) config.engine.observer.profiler = &profiler;

    const Clock::time_point start = Clock::now();
    cluster::ClusterEngine engine(deployment_, trace_, config);
    const Clock::time_point run_start = Clock::now();
    const cluster::ClusterResult result = [&] {
      const SpanScope span(ctx.traced ? ctx.spans : nullptr, "ClusterEngine::run",
                           ctx.job_span);
      return engine.run([&] { return make_job_policy("pulse", ctx.traced ? &clock : nullptr); });
    }();
    const Clock::time_point end = Clock::now();
    job.seconds = seconds_between(start, end);

    Fingerprint fp;
    RunTotals totals;
    std::uint64_t attempted = 0;
    for (const sim::RunResult& r : result.shards) {
      fp.add(r);
      totals.add(r);
      attempted += r.invocations + r.failed_invocations;
    }
    for (const std::uint64_t c : {result.rebalance_epochs, result.transfers,
                                  result.shard_crashes, result.shard_recoveries}) {
      fp.add(c);
    }
    fp.add(result.quota_moved_mb);
    fp.add(result.total_quota_mb);
    job.fingerprint = fp.value();
    job.invocations = static_cast<double>(attempted);
    job.fn_minutes =
        static_cast<double>(trace_.function_count()) * static_cast<double>(trace_.duration());

    char msg[200];
    if (attempted != total_invocations_) {
      std::snprintf(msg, sizeof(msg), "invocations + failed = %llu, trace holds %llu",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(total_invocations_));
      job.fail(msg);
    }
    // The market keeps quotas in 1/1024 MB units; each shard's initial
    // quota rounds by at most one unit.
    const double tolerance = static_cast<double>(kShards) / 1024.0;
    if (!(std::fabs(result.total_quota_mb - capacity_mb) <= tolerance)) {
      std::snprintf(msg, sizeof(msg), "total quota %.6f MB, configured capacity %.6f MB",
                    result.total_quota_mb, capacity_mb);
      job.fail(msg);
    }
    if (result.transfers == 0) job.fail("the capacity market made no quota transfer");
    if (result.shard_crashes == 0) job.fail("no shard crashed, so replay went unexercised");

    if (ctx.traced) {
      LayerValues& l = job.layers;
      const auto workers = static_cast<double>(std::min(threads_, kShards));
      add_policy_layers(l, clock, profiler, job.fn_minutes, job.seconds * workers);
      totals.to_layers(l);
      const double run_s = seconds_between(run_start, end);
      std::uint64_t replayed = 0;
      for (const cluster::ShardFailure& f : result.failures) {
        replayed += static_cast<std::uint64_t>(f.replayed_minutes);
      }
      l["cluster.run_s"] = run_s;
      l["cluster.busy_frac"] = run_s > 0.0 ? l["sim.busy_s"] / (run_s * workers) : 0.0;
      l["cluster.rebalance_epochs"] = static_cast<double>(result.rebalance_epochs);
      l["cluster.transfers"] = static_cast<double>(result.transfers);
      l["cluster.quota_moved_mb"] = result.quota_moved_mb;
      l["cluster.replayed_minutes"] = static_cast<double>(replayed);
      l["cluster.shard_crashes"] = static_cast<double>(result.shard_crashes);
      l["obs.events_recorded"] = static_cast<double>(sink.recorded());
    }
    return job;
  }

 private:
  std::size_t threads_;
  models::ModelZoo zoo_;  // the deployment points into it
  trace::Trace trace_;
  sim::Deployment deployment_;
  std::uint64_t total_invocations_ = 0;
  std::uint64_t seed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_cluster_pressure(const WorkloadOptions& options) {
  return std::make_unique<ClusterPressure>(options);
}

}  // namespace pulse::bench::e2e
