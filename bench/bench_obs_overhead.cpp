// Observability overhead benchmark: the attached-observer cost, measured.
//
// Runs a capacity-pressured PULSE engine configuration (256 functions x one
// day; 128 with --quick) in four observability modes:
//
//   disabled — no observer attached (the default everyone else pays for)
//   sink     — RingBufferSink attached to the engine, which puts it behind
//              its own one-lane EventCollector (a push into the lane's
//              retention window, fed to the sink once at finish)
//   metrics  — MetricsRegistry only (handle-bundle batched counters)
//   full     — sink + metrics + PhaseProfiler + top-K function tallies
//
// One hard gate: full ≤ 10% over disabled. Machines drift between
// processes (frequency scaling, noisy neighbours), so the two modes run in
// paired, interleaved blocks: each block alternates disabled and full runs,
// takes the minimum per side, and the gate uses the median of the block
// ratios.
//
// That attaching observers leaves RunResult bitwise identical is a ctest
// (ObsDeterminism.FullObserverLeavesRunResultBitwiseIdentical), not a
// timing property, so it is not re-checked here.
//
// Usage: bench_obs_overhead [--quick] [--out <path>]
// Writes machine-readable results to BENCH_obs_overhead.json (or --out).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_sink.hpp"
#include "policies/factory.hpp"
#include "sim/engine.hpp"
#include "trace/workload.hpp"

namespace pulse::bench {
namespace {

struct ModeResult {
  std::string mode;
  double best_wall_s = 0.0;
  double minutes_per_sec = 0.0;
  double overhead_pct = 0.0;  // vs the disabled mode of this process
  std::uint64_t events = 0;   // events recorded (sink modes)
};

enum class Mode { kDisabled, kSink, kMetrics, kFull };

const char* mode_name(Mode m) {
  switch (m) {
    case Mode::kDisabled: return "disabled";
    case Mode::kSink: return "sink";
    case Mode::kMetrics: return "metrics";
    case Mode::kFull: return "full";
  }
  return "?";
}

/// One timed engine run in the given observability mode. The workload and
/// deployment are built once by the caller; the per-run observer components
/// are fresh so each rep starts cold.
double run_mode(Mode mode, const sim::Deployment& deployment, const trace::Trace& trace,
                double capacity_mb, std::uint64_t& events_out) {
  obs::RingBufferSink sink(4096);
  obs::MetricsRegistry registry;
  obs::PhaseProfiler profiler;

  sim::EngineConfig config;
  config.seed = 12345;
  config.memory_capacity_mb = capacity_mb;
  if (mode == Mode::kSink || mode == Mode::kFull) config.observer.sink = &sink;
  if (mode == Mode::kMetrics || mode == Mode::kFull) config.observer.metrics = &registry;
  if (mode == Mode::kFull) {
    config.observer.profiler = &profiler;
    config.top_k_function_metrics = 8;  // everything-on includes the tallies
  }

  sim::SimulationEngine engine(deployment, trace, config);
  const auto policy = policies::make_policy("pulse");
  // The timed window covers the engine's final collector feed too (run()
  // returns after it): the attached cost is end-to-end, not just the
  // producer-side push.
  const auto start = std::chrono::steady_clock::now();
  // Held past the timer: destroying the result is not part of the run.
  [[maybe_unused]] const sim::RunResult result = engine.run(*policy);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;

  events_out = sink.recorded();
  return elapsed.count();
}

void write_json(const std::string& path, bool quick, std::size_t functions,
                trace::Minute duration, const std::vector<ModeResult>& modes,
                double full_overhead_pct, bool pass) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"obs_overhead\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out, "  \"functions\": %zu,\n", functions);
  std::fprintf(out, "  \"duration_min\": %lld,\n", static_cast<long long>(duration));
  std::fprintf(out, "  \"modes\": [\n");
  for (std::size_t i = 0; i < modes.size(); ++i) {
    const ModeResult& m = modes[i];
    std::fprintf(out,
                 "    {\"mode\": \"%s\", \"wall_s\": %.17g, \"minutes_per_sec\": %.17g, "
                 "\"overhead_pct\": %.17g, \"events\": %llu}%s\n",
                 m.mode.c_str(), m.best_wall_s, m.minutes_per_sec, m.overhead_pct,
                 static_cast<unsigned long long>(m.events), i + 1 < modes.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"acceptance\": {\"attached_budget_pct\": 10.0, "
               "\"full_overhead_pct\": %.17g, \"pass\": %s}\n",
               full_overhead_pct, pass ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

int run(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_obs_overhead.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--out <path>]\n", argv[0]);
      return 1;
    }
  }

  const std::size_t functions = quick ? 128 : 256;
  const trace::Minute duration = 1440;
  // Best-of-N per attached mode. The gate uses a min-of-block estimator:
  // adjacent identical runs on a shared machine differ by several percent
  // (one-sided contamination on top of a slowly drifting floor), so each
  // ~1 s block takes the minimum per side — the block-local floor cancels
  // in the ratio — and the gate takes the median over blocks to shed any
  // block that straddled a frequency step.
  const int reps = quick ? 5 : 7;
  const int blocks = quick ? 9 : 11;
  const int block_runs = quick ? 4 : 5;  // runs per side per block

  trace::WorkloadConfig wc;
  wc.function_count = functions;
  wc.duration = duration;
  wc.seed = 97;
  const trace::Workload workload = trace::build_azure_like_workload(wc);
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, functions);
  const double capacity_mb = deployment.peak_highest_memory_mb() * 0.35;

  std::printf("observability overhead: pulse engine probe, %zu functions x %lld minutes "
              "(%s mode, best of %d)\n",
              functions, static_cast<long long>(duration), quick ? "quick" : "full", reps);
  std::printf("%9s %10s %14s %12s %10s\n", "mode", "wall (s)", "minutes/s", "overhead",
              "events");

  constexpr Mode kModes[] = {Mode::kDisabled, Mode::kSink, Mode::kMetrics, Mode::kFull};
  constexpr std::size_t kModeCount = sizeof kModes / sizeof kModes[0];
  std::vector<ModeResult> results(kModeCount);
  for (std::size_t i = 0; i < kModeCount; ++i) results[i].mode = mode_name(kModes[i]);

  const auto measure = [&](Mode mode, ModeResult& r) {
    std::uint64_t events = 0;
    const double wall = run_mode(mode, deployment, workload.trace, capacity_mb, events);
    if (r.best_wall_s == 0.0 || wall < r.best_wall_s) r.best_wall_s = wall;
    r.events = events;
    return wall;
  };

  // Paired blocks, disabled vs full: alternate the two (starting side
  // alternates per block to cancel position effects) and record the ratio
  // of the per-side minima.
  std::vector<double> full_ratios;
  full_ratios.reserve(static_cast<std::size_t>(blocks));
  for (int b = 0; b < blocks; ++b) {
    double base_min = 0.0;
    double probe_min = 0.0;
    for (int i = 0; i < 2 * block_runs; ++i) {
      const bool base_turn = (i + b) % 2 == 0;
      const double wall = base_turn ? measure(Mode::kDisabled, results[0])
                                    : measure(Mode::kFull, results[3]);
      double& best = base_turn ? base_min : probe_min;
      if (best == 0.0 || wall < best) best = wall;
    }
    full_ratios.push_back(probe_min / base_min);
    if (std::getenv("PULSE_OBS_BENCH_DEBUG") != nullptr) {
      std::fprintf(stderr, "full-vs-disabled block %2d ratio %.4f\n", b, full_ratios.back());
    }
  }
  std::sort(full_ratios.begin(), full_ratios.end());
  const double full_overhead_pct = 100.0 * (full_ratios[full_ratios.size() / 2] - 1.0);

  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t i = 1; i < kModeCount; ++i) measure(kModes[i], results[i]);
  }

  const double disabled_rate = static_cast<double>(duration) / results[0].best_wall_s;
  for (ModeResult& r : results) {
    r.minutes_per_sec = static_cast<double>(duration) / r.best_wall_s;
    r.overhead_pct = 100.0 * (disabled_rate - r.minutes_per_sec) / disabled_rate;
    std::printf("%9s %10.3f %14.0f %11.2f%% %10llu\n", r.mode.c_str(), r.best_wall_s,
                r.minutes_per_sec, r.overhead_pct,
                static_cast<unsigned long long>(r.events));
  }

  const bool pass = full_overhead_pct <= 10.0;
  std::printf("\nacceptance: full (collector sink + handle metrics + profiler + top-K) vs "
              "disabled: paired overhead %.2f%% (budget 10%%) -> %s\n",
              full_overhead_pct, pass ? "PASS" : "FAIL");

  write_json(out_path, quick, functions, duration, results, full_overhead_pct, pass);
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace pulse::bench

int main(int argc, char** argv) { return pulse::bench::run(argc, argv); }
