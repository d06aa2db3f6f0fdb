// Serve-mode per-event latency benchmark and allocation gate.
//
// Drives OnlineServer with ReplaySource over a synthetic workload for the
// default PULSE, Wild (AR fallback refit per prediction) and IceBreaker (FFT
// refit per refresh) policies and measures per-event ingest latency
// (p50/p99/max). Two hard acceptance gates:
//
//   1. Zero steady-state heap allocation: global operator new is counted;
//      after the warm-up half of the stream, the count must not move. Any
//      allocation on the per-event path is a regression.
//   2. p99 latency: the run performs two identical passes; the recorded
//      baseline is pass 1 and pass 2 must stay within 2x its p99 (catches
//      accidental super-linear work on the event path without being flaky
//      about absolute machine speed).
//
// Also times core::InterArrivalTracker::probability_within on a populated
// tracker — the routine previously rescanned the recent-gap window once per
// candidate offset (O(range x window) per policy decision); the incremental
// window makes it O(range) and this micro-benchmark records the per-call
// cost next to the serve numbers.
//
// Usage: bench_serve_latency [--quick] [--out <path>]
// Writes machine-readable results to BENCH_serve_latency.json (or --out).

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <vector>

#include "core/interarrival.hpp"
#include "policies/factory.hpp"
#include "serve/server.hpp"
#include "serve/source.hpp"
#include "trace/analysis.hpp"
#include "trace/workload.hpp"

// ---------------------------------------------------------------------------
// Counting allocator hook: every global allocation bumps the counter. The
// steady-state gate reads it around the second half of the event stream.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace pulse::bench {
namespace {

using Clock = std::chrono::steady_clock;

struct PassResult {
  std::uint64_t events = 0;
  std::uint64_t steady_allocations = 0;  // allocation-count delta, 2nd half
  double p50_ns = 0.0;
  double p99_ns = 0.0;
  double max_ns = 0.0;
};

struct PolicyResult {
  std::string name;
  PassResult baseline;  // pass 1: the recorded baseline
  PassResult gated;     // pass 2: must hold p99 <= 2x baseline p99
};

double percentile(std::vector<std::uint64_t>& sorted_ns, double p) {
  if (sorted_ns.empty()) return 0.0;
  const std::size_t idx = std::min(
      sorted_ns.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted_ns.size())));
  return static_cast<double>(sorted_ns[idx]);
}

PassResult run_pass(const sim::Deployment& deployment, const trace::Trace& trace,
                    const std::string& policy_name, std::vector<std::uint64_t>& latencies) {
  const auto policy = policies::make_policy(policy_name);
  serve::ServeConfig config;
  config.horizon = trace.duration();
  serve::OnlineServer server(deployment, *policy, config);
  serve::ReplaySource source(trace);

  latencies.clear();
  serve::StreamEvent event;
  std::uint64_t steady_alloc_start = 0;
  bool in_steady_state = false;
  // Event-count estimate for the warm-up/steady split: every minute emits
  // one tick, plus roughly one invocation event per active function-minute.
  const std::uint64_t expected_events =
      static_cast<std::uint64_t>(trace.duration()) + trace.total_invocations();
  std::uint64_t seen = 0;
  while (source.next(event)) {
    if (!in_steady_state && seen * 2 >= expected_events) {
      in_steady_state = true;
      steady_alloc_start = g_allocations.load(std::memory_order_relaxed);
    }
    const Clock::time_point t0 = Clock::now();
    server.ingest(event);
    const Clock::time_point t1 = Clock::now();
    latencies.push_back(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()));
    ++seen;
    if (event.kind == serve::EventKind::kEnd) break;
  }
  const std::uint64_t steady_alloc_end = g_allocations.load(std::memory_order_relaxed);

  PassResult r;
  r.events = seen;
  r.steady_allocations = in_steady_state ? steady_alloc_end - steady_alloc_start : 0;
  std::sort(latencies.begin(), latencies.end());
  r.p50_ns = percentile(latencies, 0.50);
  r.p99_ns = percentile(latencies, 0.99);
  r.max_ns = latencies.empty() ? 0.0 : static_cast<double>(latencies.back());
  (void)server.finish();
  return r;
}

double bench_probability_within(const trace::Trace& trace) {
  core::InterArrivalTracker tracker;
  const auto minutes = trace.invocation_minutes(0);
  for (const trace::Minute t : minutes) tracker.record(t);
  const trace::Minute now = trace.duration();
  constexpr int kReps = 20000;
  double sink = 0.0;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kReps; ++i) {
    sink += tracker.probability_within(1, static_cast<std::size_t>(trace::kKeepAliveWindow),
                                       now + (i % 3));
  }
  const Clock::time_point t1 = Clock::now();
  if (sink < 0.0) std::printf("%f", sink);  // defeat dead-code elimination
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count()) /
         kReps;
}

void write_json(const std::string& path, bool quick, const std::vector<PolicyResult>& results,
                double prob_within_ns, bool pass) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"serve_latency\",\n  \"quick\": %s,\n",
               quick ? "true" : "false");
  std::fprintf(f, "  \"interarrival_probability_within_ns\": %.1f,\n", prob_within_ns);
  std::fprintf(f, "  \"policies\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const PolicyResult& r = results[i];
    std::fprintf(f,
                 "    {\"policy\": \"%s\", \"events\": %llu, "
                 "\"baseline_p50_ns\": %.1f, \"baseline_p99_ns\": %.1f, "
                 "\"baseline_max_ns\": %.1f, \"gated_p99_ns\": %.1f, "
                 "\"steady_state_allocations\": %llu}%s\n",
                 r.name.c_str(), static_cast<unsigned long long>(r.baseline.events),
                 r.baseline.p50_ns, r.baseline.p99_ns, r.baseline.max_ns, r.gated.p99_ns,
                 static_cast<unsigned long long>(r.baseline.steady_allocations +
                                                 r.gated.steady_allocations),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"pass\": %s\n}\n", pass ? "true" : "false");
  std::fclose(f);
}

int run(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_serve_latency.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out <path>]\n", argv[0]);
      return 2;
    }
  }

  trace::WorkloadConfig wconfig;
  wconfig.function_count = 12;
  wconfig.duration = (quick ? 1 : 3) * trace::kMinutesPerDay;
  wconfig.seed = 42;
  const trace::Trace trace = trace::build_azure_like_workload(wconfig).trace;
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, trace.function_count());

  const double prob_within_ns = bench_probability_within(trace);
  std::printf("interarrival probability_within: %.0f ns/call (window sweep 1..%lld)\n",
              prob_within_ns, static_cast<long long>(trace::kKeepAliveWindow));

  std::vector<std::uint64_t> latencies;
  latencies.reserve(static_cast<std::size_t>(trace.duration()) + trace.total_invocations() + 2);

  bool pass = true;
  std::vector<PolicyResult> results;
  std::printf("%-22s %10s %10s %10s %10s %12s\n", "policy", "events", "p50(ns)", "p99(ns)",
              "max(ns)", "steady-alloc");
  for (const char* name : {"pulse", "wild", "icebreaker"}) {
    PolicyResult r;
    r.name = name;
    r.baseline = run_pass(deployment, trace, r.name, latencies);
    r.gated = run_pass(deployment, trace, r.name, latencies);

    const std::uint64_t steady_allocs =
        r.baseline.steady_allocations + r.gated.steady_allocations;
    std::printf("%-22s %10llu %10.0f %10.0f %10.0f %12llu\n", name,
                static_cast<unsigned long long>(r.baseline.events), r.baseline.p50_ns,
                r.baseline.p99_ns, r.baseline.max_ns,
                static_cast<unsigned long long>(steady_allocs));

    if (steady_allocs != 0) {
      std::fprintf(stderr, "FAIL %s: %llu heap allocations in the steady-state half\n", name,
                   static_cast<unsigned long long>(steady_allocs));
      pass = false;
    }
    if (r.baseline.p99_ns > 0.0 && r.gated.p99_ns > 2.0 * r.baseline.p99_ns) {
      std::fprintf(stderr, "FAIL %s: gated-pass p99 %.0f ns > 2x recorded baseline %.0f ns\n",
                   name, r.gated.p99_ns, r.baseline.p99_ns);
      pass = false;
    }
    results.push_back(std::move(r));
  }

  write_json(out_path, quick, results, prob_within_ns, pass);
  std::printf("acceptance (zero steady-state allocations, p99 within 2x baseline): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace pulse::bench

int main(int argc, char** argv) { return pulse::bench::run(argc, argv); }
