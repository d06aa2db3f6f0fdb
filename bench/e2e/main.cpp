// pulse_bench_e2e: the repository's end-to-end benchmark.
//
//   pulse_bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//                   [--out <results.jsonl>] [--spans <spans.jsonl>]
//                   [--workdir <dir>] [--commit <id>]
//
// Flags also accept the --name=value form, and a bare --trace means 1.
// Workloads: paper-ensemble, cluster-pressure, serve-icebreaker,
// ingest-2021 (see README.md for what each one stresses and why).
//
// One process runs one workload: it builds the inputs from --seed at least
// three times (setup_s is the median), runs one warm-up job, then measured
// jobs until --seconds have passed (at least three; job_s is their median).
// peak_rss_mb is the process peak after the warm-up job. Every job must
// reproduce the warm-up job's simulation fingerprint bit for bit.
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced jobs and reports the per-layer metrics (medians over the
// traced jobs) plus the tracing overhead. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}. The
// exit code is 1 when any correctness gate failed.

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <thread>

#include "harness.hpp"
#include "util/stats.hpp"

namespace pulse::bench::e2e {
namespace {

constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kMaxSetups = 50;
constexpr double kSetupBudgetS = 0.5;
constexpr std::size_t kMaxThreads = 4;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
  std::string spans;
  std::filesystem::path workdir = ".bench_build/e2e/work";
  std::string commit = "unknown";
};

void print_usage(const char* program) {
  std::fprintf(stderr,
               "usage: %s --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]\n"
               "          [--out <results.jsonl>] [--spans <spans.jsonl>] [--workdir <dir>]\n"
               "          [--commit <id>]\nworkloads:",
               program);
  for (const std::string_view name : workload_names()) {
    std::fprintf(stderr, " %.*s", static_cast<int>(name.size()), name.data());
  }
  std::fprintf(stderr, "\n");
}

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return std::nullopt;
    key.erase(0, 2);
    std::string value = "1";
    if (const std::size_t eq = key.find('='); eq != std::string::npos) {
      value = key.substr(eq + 1);
      key.resize(eq);
    } else if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
      value = argv[++i];
    }
    try {
      if (key == "workload") {
        a.workload = value;
        have_workload = true;
      } else if (key == "seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (key == "seconds") {
        a.seconds = std::stod(value);
      } else if (key == "trace") {
        a.trace = value != "0";
      } else if (key == "out") {
        a.out = value;
      } else if (key == "spans") {
        a.spans = value;
      } else if (key == "workdir") {
        a.workdir = value;
      } else if (key == "commit") {
        a.commit = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed || !(a.seconds >= 0.0)) return std::nullopt;
  return a;
}

/// CPUs this process may run on (its affinity mask), at least 1.
std::size_t available_cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Peak resident set of this process (VmHWM), MB; 0 where /proc is absent.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kb = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kb / 1024.0;
}

const char* compiler() {
#if defined(__clang__)
  return "clang " __clang_version__;
#elif defined(__GNUC__)
  return "gcc " __VERSION__;
#else
  return "unknown";
#endif
}

struct Measured {
  const MetricSpec* spec;
  double value;
};

/// JSON has no NaN or infinity; a non-finite metric is a benchmark bug.
std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

bool append_results(const Args& a, const std::vector<Measured>& metrics, bool correct,
                    std::uint64_t attempted, std::uint64_t failed, std::size_t setups,
                    std::size_t jobs, std::size_t threads) {
  std::FILE* f = std::fopen(a.out.c_str(), "a");
  if (f == nullptr) return false;
  const int trace = a.trace ? 1 : 0;
  std::fprintf(f,
               "{\"run\":{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"seconds\":%s,"
               "\"setups\":%zu,\"jobs\":%zu,\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
               "\"nproc\":%zu,\"threads\":%zu,\"compiler\":\"%s\",\"commit\":\"%s\"}}\n",
               a.workload.c_str(), static_cast<unsigned long long>(a.seed), trace,
               json_number(a.seconds).c_str(), setups, jobs, correct ? "true" : "false",
               static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed),
               available_cpus(), threads, compiler(), a.commit.c_str());
  for (const Measured& m : metrics) {
    const std::string bound = m.spec->bound >= 0.0 ? json_number(m.spec->bound) : "null";
    std::fprintf(f,
                 "{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%d,\"metric\":\"%s\","
                 "\"unit\":\"%s\",\"better\":\"%s\",\"bound\":%s,\"value\":%s}\n",
                 a.workload.c_str(), static_cast<unsigned long long>(a.seed), trace,
                 m.spec->name, m.spec->unit, m.spec->better, bound.c_str(),
                 json_number(m.value).c_str());
  }
  return std::fclose(f) == 0;
}

int run(const Args& a) {
  const std::size_t threads = std::min(kMaxThreads, available_cpus());
  std::filesystem::create_directories(a.workdir);
  const auto workload = make_workload(a.workload, {threads, a.workdir});
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }

  SpanLog span_log;
  SpanLog* const spans = a.trace ? &span_log : nullptr;

  // Set up at least kMinSetups times, and more while they fit the budget, so
  // a setup of a few milliseconds still has a steady median.
  std::vector<double> setup_s;
  const Clock::time_point setup_start = Clock::now();
  while (setup_s.size() < kMinSetups ||
         (setup_s.size() < kMaxSetups &&
          seconds_between(setup_start, Clock::now()) < kSetupBudgetS)) {
    const SpanScope span(spans, "setup", -1);
    const Clock::time_point t0 = Clock::now();
    workload->setup(a.seed);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;
  std::optional<std::uint64_t> reference;  // the warm-up job's fingerprint
  const auto run_job = [&](bool traced) {
    const SpanScope span(spans, traced ? "job:traced" : "job", -1);
    JobResult job = workload->run_job({traced, spans, span.id()});
    if (!reference) {
      reference = job.fingerprint;
    } else if (job.fingerprint != *reference) {
      job.fail(traced ? "traced job's fingerprint differs from the untraced warm-up job"
                      : "job's fingerprint differs from the warm-up job");
    }
    attempted += job.operations;
    failed += job.failed_operations;
    for (std::string& msg : job.failures) {
      if (std::find(failures.begin(), failures.end(), msg) == failures.end()) {
        failures.push_back(std::move(msg));
      }
    }
    std::fprintf(stderr, "%s job: %.3f s\n", traced ? "traced" : "untraced", job.seconds);
    return job;
  };

  (void)run_job(false);  // warm-up
  // The peak of setup plus one job, as a user running the path once sees
  // it; later jobs only add allocator fragmentation that varies by seed.
  const double rss_mb = peak_rss_mb();

  std::vector<JobResult> plain;
  std::vector<JobResult> traced;
  const std::size_t min_jobs = a.trace ? 2 : 3;
  const Clock::time_point measure_start = Clock::now();
  do {
    plain.push_back(run_job(false));
    if (a.trace) traced.push_back(run_job(true));
  } while (plain.size() < min_jobs || seconds_between(measure_start, Clock::now()) < a.seconds);

  const auto median = [](std::span<const double> values) {
    return util::percentile(values, 50.0);
  };
  const auto median_seconds = [&](const std::vector<JobResult>& jobs) {
    std::vector<double> values;
    for (const JobResult& j : jobs) values.push_back(j.seconds);
    return median(values);
  };
  const double job_s = median_seconds(plain);

  std::vector<Measured> metrics;
  if (!a.trace) {
    const std::map<std::string_view, double> values = {
        {"setup_s", median(setup_s)},
        {"job_s", job_s},
        {"fn_minutes_per_s", plain.front().fn_minutes / job_s},
        {"invocations_per_s", plain.front().invocations / job_s},
        {"peak_rss_mb", rss_mb},
    };
    for (const MetricSpec& spec : end_to_end_metrics()) {
      metrics.push_back({&spec, values.at(spec.name)});
    }
  } else {
    const double traced_s = median_seconds(traced);
    for (const MetricSpec& spec : per_layer_metrics()) {
      std::vector<double> values;
      for (const JobResult& j : traced) {
        const auto it = j.layers.find(spec.name);
        values.push_back(it != j.layers.end() ? it->second : 0.0);
      }
      double v = median(values);
      if (std::strcmp(spec.name, "bench.traced_job_s") == 0) v = traced_s;
      if (std::strcmp(spec.name, "bench.trace_overhead_frac") == 0) v = traced_s / job_s - 1.0;
      metrics.push_back({&spec, v});
    }
  }
  for (const Measured& m : metrics) {
    if (!std::isfinite(m.value)) failures.push_back(std::string(m.spec->name) + " is not finite");
  }
  const bool correct = failures.empty();
  for (const std::string& msg : failures) std::fprintf(stderr, "FAIL %s\n", msg.c_str());

  if (!a.spans.empty() && !span_log.write_jsonl(a.spans)) {
    std::fprintf(stderr, "cannot write %s\n", a.spans.c_str());
    return 1;
  }
  if (!a.out.empty() &&
      !append_results(a, metrics, correct, attempted, failed, setup_s.size(),
                      plain.size() + traced.size(), threads)) {
    std::fprintf(stderr, "cannot write %s\n", a.out.c_str());
    return 1;
  }

  std::printf("workload %s, seed %llu, %zu measured jobs on %zu threads\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), plain.size() + traced.size(), threads);
  for (const Measured& m : metrics) {
    std::printf("  %-32s %16.6g %s\n", m.spec->name, m.value, m.spec->unit);
  }
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    line += (i ? ", \"" : "\"") + std::string(metrics[i].spec->name) +
            "\": {\"value\": " + json_number(metrics[i].value) + ", \"unit\": \"" +
            metrics[i].spec->unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace pulse::bench::e2e

int main(int argc, char** argv) {
  using namespace pulse::bench::e2e;
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    print_usage(argv[0]);
    return 2;
  }
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
