#include "harness.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>

#include "policies/factory.hpp"
#include "timed_policy.hpp"

namespace pulse::bench::e2e {

// Wall-time bounds are 0.25, the largest BENCHMARK.json accepts: on the
// 4-vCPU host the committed results come from, host speed drifts by more
// than 10% between runs a minute apart, so the quartile spread of job_s
// over ten seeds measured 2.5-18% (README.md, "End-to-end metrics").
const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower", 0.25},
      {"job_s", "s", "lower", 0.25},
      {"fn_minutes_per_s", "1/s", "higher", 0.25},
      {"invocations_per_s", "1/s", "higher", 0.25},
      {"peak_rss_mb", "MB", "lower", 0.10},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"policies.on_invocation_s", "s", "lower", -1},
      {"policies.on_invocation_ns", "ns", "lower", -1},
      {"policies.on_invocation_calls", "count", "lower", -1},
      {"policies.end_of_minute_s", "s", "lower", -1},
      {"policies.end_of_minute_us", "us", "lower", -1},
      {"policies.checkpoint_calls", "count", "lower", -1},
      {"policies.checkpoint_s", "s", "lower", -1},
      {"policies.busy_share", "ratio", "lower", -1},
      {"policies.job_share", "ratio", "lower", -1},
      {"predict.busy_s", "s", "lower", -1},
      {"sim.busy_s", "s", "lower", -1},
      {"sim.self_s", "s", "lower", -1},
      {"sim.self_ns_per_fn_minute", "ns", "lower", -1},
      {"sim.capacity_evictions", "count", "lower", -1},
      {"sim.cold_start_frac", "ratio", "lower", -1},
      {"sim.downgrades", "count", "lower", -1},
      {"cluster.run_s", "s", "lower", -1},
      {"cluster.busy_frac", "ratio", "higher", -1},
      {"cluster.rebalance_epochs", "count", "lower", -1},
      {"cluster.transfers", "count", "lower", -1},
      {"cluster.quota_moved_mb", "MB", "lower", -1},
      {"cluster.replayed_minutes", "min", "lower", -1},
      {"cluster.shard_crashes", "count", "lower", -1},
      {"obs.events_recorded", "count", "lower", -1},
      {"fault.failed_invocations", "count", "lower", -1},
      {"fault.crash_evictions", "count", "lower", -1},
      {"trace.load_s", "s", "lower", -1},
      {"trace.load_share", "ratio", "lower", -1},
      {"trace.rows_per_s", "1/s", "higher", -1},
      {"trace.mb_per_s", "MB/s", "higher", -1},
      {"trace.functions", "count", "higher", -1},
      {"serve.parse_s", "s", "lower", -1},
      {"serve.parse_ns_per_event", "ns", "lower", -1},
      {"serve.invocation_ingest_ns", "ns", "lower", -1},
      {"serve.events", "count", "higher", -1},
      {"serve.dropped_events", "count", "lower", -1},
      {"serve.malformed_lines", "count", "lower", -1},
      {"serve.tick_s", "s", "lower", -1},
      {"serve.ticks", "count", "higher", -1},
      {"serve.tick_p50_us", "us", "lower", -1},
      {"serve.tick_p99_us", "us", "lower", -1},
      {"serve.tick_predict_share", "ratio", "lower", -1},
      {"bench.traced_job_s", "s", "lower", -1},
      {"bench.trace_overhead_frac", "ratio", "lower", -1},
  };
  return specs;
}

// --- SpanLog ---------------------------------------------------------------

int SpanLog::open(std::string name, int parent) {
  const double now = seconds_between(origin_, Clock::now());
  spans_.push_back({std::move(name), parent, now, now});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::close(int id) {
  spans_.at(static_cast<std::size_t>(id)).end_s = seconds_between(origin_, Clock::now());
}

void SpanLog::add(std::string name, int parent, Clock::time_point start,
                  Clock::time_point end) {
  spans_.push_back(
      {std::move(name), parent, seconds_between(origin_, start), seconds_between(origin_, end)});
}

bool SpanLog::write_jsonl(const std::filesystem::path& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "{\"id\":%zu,\"parent\":%d,\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f}\n",
                 i, s.parent, s.name.c_str(), s.start_s, s.end_s);
  }
  return std::fclose(f) == 0;
}

// --- Fingerprint -----------------------------------------------------------

void Fingerprint::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    hash_ ^= (v >> (8 * i)) & 0xff;
    hash_ *= 0x100000001b3ULL;
  }
}

void Fingerprint::add(double v) noexcept { add(std::bit_cast<std::uint64_t>(v)); }

void Fingerprint::add(const sim::RunResult& r) noexcept {
  add(r.total_keepalive_cost_usd);
  add(r.total_service_time_s);
  add(r.accuracy_pct_sum);
  for (const std::uint64_t c :
       {r.invocations, r.warm_starts, r.cold_starts, r.downgrades, r.capacity_evictions,
        r.failed_invocations, r.retries, r.timeouts, r.crash_evictions, r.degraded_minutes,
        r.guard_incidents}) {
    add(c);
  }
}

// --- JobResult / workloads -------------------------------------------------

void JobResult::fail(std::string message, std::uint64_t ops) {
  failures.push_back(std::move(message));
  failed_operations = std::min(operations, failed_operations + ops);
}

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names = {"paper-ensemble", "cluster-pressure",
                                                      "serve-icebreaker", "ingest-2021"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name, const WorkloadOptions& options) {
  if (name == "paper-ensemble") return make_paper_ensemble(options);
  if (name == "cluster-pressure") return make_cluster_pressure(options);
  if (name == "serve-icebreaker") return make_serve_icebreaker(options);
  if (name == "ingest-2021") return make_ingest_2021(options);
  return nullptr;
}

std::unique_ptr<sim::KeepAlivePolicy> make_job_policy(std::string_view name,
                                                      PolicyClock* clock) {
  auto policy = policies::make_policy(name);
  if (clock == nullptr) return policy;
  return std::make_unique<TimedPolicy>(std::move(policy), *clock);
}

// --- Layer helpers ---------------------------------------------------------

void add_policy_layers(LayerValues& out, const PolicyClock& clock,
                       const obs::PhaseProfiler& profiler, double fn_minutes,
                       double thread_seconds) {
  const auto mean = [](const CallStats& s, double scale) {
    return s.calls ? s.total_s / static_cast<double>(s.calls) * scale : 0.0;
  };
  out["policies.on_invocation_s"] = clock.on_invocation.total_s;
  out["policies.on_invocation_ns"] = mean(clock.on_invocation, 1e9);
  out["policies.on_invocation_calls"] = static_cast<double>(clock.on_invocation.calls);
  out["policies.end_of_minute_s"] = clock.end_of_minute.total_s;
  out["policies.end_of_minute_us"] = mean(clock.end_of_minute, 1e6);
  out["policies.checkpoint_calls"] = static_cast<double>(clock.checkpoint.calls);
  out["policies.checkpoint_s"] = clock.checkpoint.total_s;

  // Policy calls made inside the engine's minute loop (checkpoints are taken
  // by the cluster coordinator between slices, outside kSimulate).
  const double in_sim = clock.on_invocation.total_s + clock.end_of_minute.total_s;
  const double busy = profiler.stats(obs::Phase::kSimulate).total_s;
  const double self = std::max(0.0, busy - in_sim);
  out["sim.busy_s"] = busy;
  out["sim.self_s"] = self;
  out["sim.self_ns_per_fn_minute"] = fn_minutes > 0.0 ? self / fn_minutes * 1e9 : 0.0;
  out["policies.busy_share"] = busy > 0.0 ? in_sim / busy : 0.0;
  out["policies.job_share"] = thread_seconds > 0.0 ? in_sim / thread_seconds : 0.0;
  out["predict.busy_s"] = profiler.stats(obs::Phase::kPredict).total_s;
}

void RunTotals::add(const sim::RunResult& r) noexcept {
  invocations += r.invocations;
  cold_starts += r.cold_starts;
  downgrades += r.downgrades;
  capacity_evictions += r.capacity_evictions;
  failed_invocations += r.failed_invocations;
  crash_evictions += r.crash_evictions;
}

void RunTotals::to_layers(LayerValues& out) const {
  out["sim.capacity_evictions"] = static_cast<double>(capacity_evictions);
  out["sim.cold_start_frac"] =
      invocations ? static_cast<double>(cold_starts) / static_cast<double>(invocations) : 0.0;
  out["sim.downgrades"] = static_cast<double>(downgrades);
  out["fault.failed_invocations"] = static_cast<double>(failed_invocations);
  out["fault.crash_evictions"] = static_cast<double>(crash_evictions);
}

}  // namespace pulse::bench::e2e
