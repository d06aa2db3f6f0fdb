// Engine hot-path benchmark: incremental KeepAliveSchedule vs the
// pre-optimization implementation.
//
// Sweeps function count x duration x capacity pressure and drives both
// schedule implementations through the engine's per-minute hot loop
// (keep-alive fills, capacity check, random eviction, memory accounting).
// The baseline below is a replica of the schedule as it existed before the
// incremental-aggregate rework: function-major storage, O(F) memory_at, and
// a kept-alive list rebuilt per eviction — the O(F^2) pressured-minute
// behaviour the rework removed. Its O(F) scan sums correctly rounded, the
// production schedule's memory contract. Both drive_* loops consume
// identical RNG sequences, so eviction counts and the per-minute memory
// checksum must match bitwise; the benchmark fails hard if they do not.
//
// Also probes the full SimulationEngine once per mode to report end-to-end
// minutes/sec and the policy-overhead share of wall time.
//
// Usage: bench_engine_hotpath [--quick] [--out <path>]
// Writes machine-readable results to BENCH_engine_hotpath.json (or --out).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "policies/factory.hpp"
#include "sim/engine.hpp"
#include "sim/schedule.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace pulse::bench {
namespace {

using sim::Deployment;
using sim::kNoVariant;

/// The schedule exactly as it was before the incremental-aggregate rework,
/// reduced to the operations the hot loop exercises. Kept here (not in
/// src/) so the production tree carries a single implementation.
class LegacySchedule {
 public:
  LegacySchedule(const Deployment& deployment, trace::Minute duration)
      : deployment_(&deployment), duration_(duration) {
    slots_.assign(deployment.function_count(),
                  std::vector<std::int16_t>(static_cast<std::size_t>(duration), kNoVariant));
  }

  void fill(trace::FunctionId f, trace::Minute from, trace::Minute to, int variant) {
    from = std::max<trace::Minute>(from, 0);
    to = std::min(to, duration_);
    auto& row = slots_.at(f);
    for (trace::Minute t = from; t < to; ++t) {
      row[static_cast<std::size_t>(t)] = static_cast<std::int16_t>(variant);
    }
  }

  void evict_from(trace::FunctionId f, trace::Minute t) {
    if (t < 0 || t >= duration_) return;
    auto& row = slots_.at(f);
    for (trace::Minute m = t; m < duration_; ++m) {
      auto& slot = row[static_cast<std::size_t>(m)];
      if (slot == kNoVariant) break;
      slot = kNoVariant;
    }
  }

  /// The O(F) scan, summed exactly in 2^-60 MB units (every zoo memory is a
  /// whole number of them) and rounded once: the correctly rounded total.
  [[nodiscard]] double memory_at(trace::Minute t) const {
    if (t < 0 || t >= duration_) return 0.0;
    unsigned __int128 units = 0;
    for (trace::FunctionId f = 0; f < slots_.size(); ++f) {
      const int v = slots_[f][static_cast<std::size_t>(t)];
      if (v != kNoVariant) {
        const double mb =
            deployment_->family_of(f).variant(static_cast<std::size_t>(v)).memory_mb;
        units += static_cast<unsigned __int128>(std::ldexp(mb, 60));
      }
    }
    return std::ldexp(static_cast<double>(units), -60);
  }

  [[nodiscard]] std::vector<std::pair<trace::FunctionId, std::size_t>> kept_alive_at(
      trace::Minute t) const {
    std::vector<std::pair<trace::FunctionId, std::size_t>> out;
    if (t < 0 || t >= duration_) return out;
    for (trace::FunctionId f = 0; f < slots_.size(); ++f) {
      const int v = slots_[f][static_cast<std::size_t>(t)];
      if (v != kNoVariant) out.emplace_back(f, static_cast<std::size_t>(v));
    }
    return out;
  }

 private:
  const Deployment* deployment_;
  trace::Minute duration_;
  std::vector<std::vector<std::int16_t>> slots_;
};

/// One synthetic minute of policy writes: a deterministic batch of
/// keep-alive fills, shaped like the engine feeding a keep-alive policy.
template <typename ScheduleT>
void apply_invocations(ScheduleT& schedule, const Deployment& deployment, util::Pcg32& rng,
                       trace::Minute t, std::size_t functions) {
  const std::size_t invocations = std::max<std::size_t>(1, functions / 16);
  for (std::size_t k = 0; k < invocations; ++k) {
    const auto f =
        static_cast<trace::FunctionId>(rng.bounded(static_cast<std::uint32_t>(functions)));
    const auto variants =
        static_cast<std::uint32_t>(deployment.family_of(f).variant_count());
    const int v = static_cast<int>(rng.bounded(variants));
    const auto window = static_cast<trace::Minute>(5 + rng.bounded(10));
    schedule.fill(f, t, t + window, v);
  }
}

struct DriveRun {
  std::uint64_t evictions = 0;
  double memory_checksum = 0.0;  // sum of memory_at over every minute
};

/// The pre-change engine hot loop: re-scan memory per check, rebuild the
/// kept-alive list per eviction.
DriveRun drive_legacy(const Deployment& deployment, std::size_t functions,
                      trace::Minute duration, double capacity_mb, std::uint64_t seed) {
  LegacySchedule schedule(deployment, duration);
  util::Pcg32 rng(seed);
  util::Pcg32 evict_rng(seed ^ 0x9e3779b97f4a7c15ULL, 54u);
  DriveRun out;
  for (trace::Minute t = 0; t < duration; ++t) {
    apply_invocations(schedule, deployment, rng, t, functions);
    if (capacity_mb > 0.0) {
      while (schedule.memory_at(t) > capacity_mb) {
        const auto kept = schedule.kept_alive_at(t);
        if (kept.empty()) break;
        const auto idx = evict_rng.bounded(static_cast<std::uint32_t>(kept.size()));
        schedule.evict_from(kept[idx].first, t);
        ++out.evictions;
      }
    }
    out.memory_checksum += schedule.memory_at(t);
  }
  return out;
}

/// The post-change hot loop: O(1) pressure check, one kept-alive snapshot
/// maintained in place across evictions.
DriveRun drive_incremental(const Deployment& deployment, std::size_t functions,
                           trace::Minute duration, double capacity_mb, std::uint64_t seed) {
  sim::KeepAliveSchedule schedule(deployment, duration);
  util::Pcg32 rng(seed);
  util::Pcg32 evict_rng(seed ^ 0x9e3779b97f4a7c15ULL, 54u);
  std::vector<std::pair<trace::FunctionId, std::size_t>> kept_buffer;
  DriveRun out;
  for (trace::Minute t = 0; t < duration; ++t) {
    apply_invocations(schedule, deployment, rng, t, functions);
    if (capacity_mb > 0.0 && schedule.memory_at(t) > capacity_mb) {
      schedule.kept_alive_at(t, kept_buffer);
      while (!kept_buffer.empty()) {
        const auto idx = evict_rng.bounded(static_cast<std::uint32_t>(kept_buffer.size()));
        const auto victim = kept_buffer[static_cast<std::size_t>(idx)];
        schedule.evict_from(victim.first, t);
        kept_buffer.erase(kept_buffer.begin() + static_cast<std::ptrdiff_t>(idx));
        ++out.evictions;
        if (schedule.memory_at(t) <= capacity_mb) break;
      }
    }
    out.memory_checksum += schedule.memory_at(t);
  }
  return out;
}

/// Peak concurrent memory of the synthetic workload with no capacity cap,
/// used to place the pressured cap at a fraction that forces steady
/// eviction. Uses the incremental schedule only as a calculator — the
/// invocation RNG sequence matches the timed drives exactly.
double calibrate_peak_mb(const Deployment& deployment, std::size_t functions,
                         trace::Minute duration, std::uint64_t seed) {
  sim::KeepAliveSchedule schedule(deployment, duration);
  util::Pcg32 rng(seed);
  double peak = 0.0;
  for (trace::Minute t = 0; t < duration; ++t) {
    apply_invocations(schedule, deployment, rng, t, functions);
    peak = std::max(peak, schedule.memory_at(t));
  }
  return peak;
}

struct SweepResult {
  std::size_t functions = 0;
  trace::Minute duration = 0;
  bool pressured = false;
  double capacity_mb = 0.0;
  std::uint64_t evictions = 0;
  double legacy_s = 0.0;
  double incremental_s = 0.0;
  [[nodiscard]] double legacy_minutes_per_sec() const {
    return static_cast<double>(duration) / legacy_s;
  }
  [[nodiscard]] double incremental_minutes_per_sec() const {
    return static_cast<double>(duration) / incremental_s;
  }
  [[nodiscard]] double speedup() const { return legacy_s / incremental_s; }
};

template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    if (r == 0 || elapsed.count() < best) best = elapsed.count();
  }
  return best;
}

bool run_sweep_config(std::size_t functions, trace::Minute duration, bool pressured,
                      int reps, SweepResult& out) {
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const Deployment deployment = Deployment::round_robin(zoo, functions);
  const std::uint64_t seed = 0xb5u * functions + static_cast<std::uint64_t>(duration);
  const double capacity_mb =
      pressured ? 0.45 * calibrate_peak_mb(deployment, functions, duration, seed) : 0.0;

  DriveRun legacy_run, incremental_run;
  const double legacy_s = best_of(reps, [&] {
    legacy_run = drive_legacy(deployment, functions, duration, capacity_mb, seed);
  });
  const double incremental_s = best_of(reps, [&] {
    incremental_run = drive_incremental(deployment, functions, duration, capacity_mb, seed);
  });

  // Both drivers must make bit-identical decisions; anything else means the
  // baseline replica and the production schedule have diverged.
  if (legacy_run.evictions != incremental_run.evictions ||
      legacy_run.memory_checksum != incremental_run.memory_checksum) {
    std::fprintf(stderr,
                 "FATAL: implementations diverged at F=%zu D=%lld pressured=%d "
                 "(evictions %llu vs %llu, checksum %.17g vs %.17g)\n",
                 functions, static_cast<long long>(duration), pressured ? 1 : 0,
                 static_cast<unsigned long long>(legacy_run.evictions),
                 static_cast<unsigned long long>(incremental_run.evictions),
                 legacy_run.memory_checksum, incremental_run.memory_checksum);
    return false;
  }

  out.functions = functions;
  out.duration = duration;
  out.pressured = pressured;
  out.capacity_mb = capacity_mb;
  out.evictions = legacy_run.evictions;
  out.legacy_s = legacy_s;
  out.incremental_s = incremental_s;
  return true;
}

struct EngineProbe {
  std::size_t functions = 0;
  trace::Minute duration = 0;
  double wall_s = 0.0;
  double policy_overhead_s = 0.0;
  std::uint64_t capacity_evictions = 0;
  [[nodiscard]] double minutes_per_sec() const {
    return static_cast<double>(duration) / wall_s;
  }
  [[nodiscard]] double overhead_share() const {
    return wall_s > 0.0 ? policy_overhead_s / wall_s : 0.0;
  }
};

/// End-to-end sanity point: the real engine + pulse policy under capacity
/// pressure, so the JSON records how much of a full simulated run the
/// schedule path now costs. Best-of-`reps` wall time: bench_obs_overhead
/// gates its disabled-mode rate against this probe's JSON, so the recorded
/// rate must be the machine's floor, not one sample of scheduler noise.
EngineProbe probe_engine(std::size_t functions, trace::Minute duration, int reps) {
  trace::WorkloadConfig wc;
  wc.function_count = functions;
  wc.duration = duration;
  wc.seed = 97;
  const trace::Workload workload = trace::build_azure_like_workload(wc);
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const Deployment deployment = Deployment::round_robin(zoo, functions);

  sim::EngineConfig config;
  config.seed = 12345;
  config.measure_overhead = true;  // wall time inside policy calls
  config.memory_capacity_mb = deployment.peak_highest_memory_mb() * 0.35;

  EngineProbe probe;
  probe.functions = functions;
  probe.duration = duration;
  for (int r = 0; r < reps; ++r) {
    sim::SimulationEngine engine(deployment, workload.trace, config);
    const auto policy = policies::make_policy("pulse");
    const auto start = std::chrono::steady_clock::now();
    const sim::RunResult result = engine.run(*policy);
    const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - start;
    if (r == 0 || elapsed.count() < probe.wall_s) {
      probe.wall_s = elapsed.count();
      probe.policy_overhead_s = result.policy_overhead_s;
      probe.capacity_evictions = result.capacity_evictions;
    }
  }
  return probe;
}

void write_json(const std::string& path, bool quick, const std::vector<SweepResult>& sweep,
                const EngineProbe& probe, double pressured_speedup_at_1000) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s for writing\n", path.c_str());
    return;
  }
  std::fprintf(out, "{\n");
  std::fprintf(out, "  \"bench\": \"engine_hotpath\",\n");
  std::fprintf(out, "  \"quick\": %s,\n", quick ? "true" : "false");
  std::fprintf(out, "  \"schedule_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const SweepResult& r = sweep[i];
    std::fprintf(out,
                 "    {\"functions\": %zu, \"duration_min\": %lld, "
                 "\"capacity_pressure\": %s, \"capacity_mb\": %.17g,\n"
                 "     \"evictions\": %llu, \"legacy_s\": %.17g, \"incremental_s\": %.17g,\n"
                 "     \"legacy_minutes_per_sec\": %.17g, "
                 "\"incremental_minutes_per_sec\": %.17g,\n"
                 "     \"evictions_per_sec\": %.17g, \"speedup\": %.17g}%s\n",
                 r.functions, static_cast<long long>(r.duration),
                 r.pressured ? "true" : "false", r.capacity_mb,
                 static_cast<unsigned long long>(r.evictions), r.legacy_s, r.incremental_s,
                 r.legacy_minutes_per_sec(), r.incremental_minutes_per_sec(),
                 r.incremental_s > 0.0 ? static_cast<double>(r.evictions) / r.incremental_s
                                       : 0.0,
                 r.speedup(), i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(out, "  ],\n");
  std::fprintf(out,
               "  \"engine_probe\": {\"functions\": %zu, \"duration_min\": %lld, "
               "\"wall_s\": %.17g, \"minutes_per_sec\": %.17g,\n"
               "    \"policy_overhead_s\": %.17g, \"policy_overhead_share\": %.17g, "
               "\"capacity_evictions\": %llu},\n",
               probe.functions, static_cast<long long>(probe.duration), probe.wall_s,
               probe.minutes_per_sec(), probe.policy_overhead_s, probe.overhead_share(),
               static_cast<unsigned long long>(probe.capacity_evictions));
  std::fprintf(out,
               "  \"acceptance\": {\"target_speedup\": 5.0, \"functions\": 1000, "
               "\"pressured_speedup\": %.17g, \"pass\": %s}\n",
               pressured_speedup_at_1000, pressured_speedup_at_1000 >= 5.0 ? "true" : "false");
  std::fprintf(out, "}\n");
  std::fclose(out);
  std::printf("\nwrote %s\n", path.c_str());
}

int run(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_engine_hotpath.json";
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

  const std::vector<std::size_t> function_counts{64, 256, 1000};
  const std::vector<trace::Minute> durations =
      quick ? std::vector<trace::Minute>{720} : std::vector<trace::Minute>{1440, 4320};
  const int reps = quick ? 2 : 3;

  std::printf("engine hot-path: incremental schedule vs pre-change baseline (%s mode)\n",
              quick ? "quick" : "full");
  std::printf("%9s %9s %9s %12s %14s %14s %9s\n", "functions", "minutes", "pressure",
              "evictions", "legacy min/s", "incr min/s", "speedup");

  std::vector<SweepResult> sweep;
  double pressured_speedup_at_1000 = 0.0;
  bool have_1000 = false;
  for (const std::size_t functions : function_counts) {
    for (const trace::Minute duration : durations) {
      for (const bool pressured : {false, true}) {
        SweepResult r;
        if (!run_sweep_config(functions, duration, pressured, reps, r)) return 1;
        std::printf("%9zu %9lld %9s %12llu %14.0f %14.0f %8.1fx\n", r.functions,
                    static_cast<long long>(r.duration), r.pressured ? "on" : "off",
                    static_cast<unsigned long long>(r.evictions),
                    r.legacy_minutes_per_sec(), r.incremental_minutes_per_sec(),
                    r.speedup());
        if (pressured && functions == 1000) {
          pressured_speedup_at_1000 = have_1000
                                          ? std::min(pressured_speedup_at_1000, r.speedup())
                                          : r.speedup();
          have_1000 = true;
        }
        sweep.push_back(r);
      }
    }
  }

  const EngineProbe probe = probe_engine(quick ? 128 : 256, 1440, quick ? 5 : 7);
  std::printf(
      "\nfull engine (pulse policy, capacity-pressured): %.0f minutes/s, "
      "policy overhead %.1f%% of wall\n",
      probe.minutes_per_sec(), 100.0 * probe.overhead_share());

  std::printf("acceptance (>=5x at 1000 functions, pressured): %.1fx -> %s\n",
              pressured_speedup_at_1000,
              pressured_speedup_at_1000 >= 5.0 ? "PASS" : "FAIL");

  write_json(out_path, quick, sweep, probe, pressured_speedup_at_1000);
  return 0;
}

}  // namespace
}  // namespace pulse::bench

int main(int argc, char** argv) { return pulse::bench::run(argc, argv); }
