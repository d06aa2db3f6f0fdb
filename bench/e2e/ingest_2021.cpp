// ingest-2021: setup writes a synthetic Azure 2021 per-invocation file (4M
// rows, ~98 MB, 200 apps x 5 functions over 3 days, rows shuffled in time).
// One job streams it through trace::stream_load_azure and replays the
// loaded trace under OpenWhisk, whose fixed keep-alive keeps PULSE's
// optimizer out: the trace layer and the engine's per-invocation accounting
// on a dense 1,000-function trace, with no capacity pressure.

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <vector>

#include "harness.hpp"
#include "sim/engine.hpp"
#include "timed_policy.hpp"
#include "trace/azure_stream.hpp"

namespace pulse::bench::e2e {
namespace {

constexpr std::uint64_t kRows = 4'000'000;
constexpr std::uint32_t kApps = 200;
constexpr std::uint32_t kFunctionsPerApp = 5;
constexpr double kSpanSeconds = 3 * 24 * 3600.0;

/// Writes the synthetic 2021 file; returns false on an I/O error.
bool write_2021_file(const std::filesystem::path& path, std::uint64_t seed) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<char> buffer(1 << 20);
  std::size_t used = 0;
  const auto put = [&](const char* s, std::size_t n) {
    std::copy(s, s + n, buffer.data() + used);
    used += n;
  };
  const auto put_number = [&](auto value, auto... format) {
    const auto r = std::to_chars(buffer.data() + used, buffer.data() + buffer.size(), value,
                                 format...);
    used = static_cast<std::size_t>(r.ptr - buffer.data());
  };
  constexpr std::string_view header = "app,func,end_timestamp,duration\n";
  put(header.data(), header.size());
  util::Pcg32 rng(seed, /*stream=*/43);
  bool ok = true;
  for (std::uint64_t i = 0; i < kRows && ok; ++i) {
    const std::uint32_t app = rng.bounded(kApps);
    const std::uint32_t func = rng.bounded(kFunctionsPerApp);
    const double start = rng.uniform(0.0, kSpanSeconds);
    const double duration = rng.uniform(0.05, 300.0);
    put("a", 1);
    put_number(app);
    put(",f", 2);
    put_number(func);
    put(",", 1);
    put_number(start + duration, std::chars_format::fixed, 3);
    put(",", 1);
    put_number(duration, std::chars_format::fixed, 3);
    put("\n", 1);
    if (used > buffer.size() - 128) {
      ok = std::fwrite(buffer.data(), 1, used, f) == used;
      used = 0;
    }
  }
  ok = ok && std::fwrite(buffer.data(), 1, used, f) == used;
  return std::fclose(f) == 0 && ok;
}

class Ingest2021 final : public Workload {
 public:
  explicit Ingest2021(const WorkloadOptions& options)
      : path_(options.workdir / "ingest-2021.csv"), zoo_(models::ModelZoo::builtin()) {}

  ~Ingest2021() override {
    std::error_code ec;
    std::filesystem::remove(path_, ec);
  }

  Ingest2021(const Ingest2021&) = delete;
  Ingest2021& operator=(const Ingest2021&) = delete;
  Ingest2021(Ingest2021&&) = delete;
  Ingest2021& operator=(Ingest2021&&) = delete;

  void setup(std::uint64_t seed) override {
    if (!write_2021_file(path_, seed)) {
      throw std::runtime_error("cannot write " + path_.string());
    }
    seed_ = seed;
  }

  JobResult run_job(const JobContext& ctx) override {
    JobResult job;
    job.operations = kRows;  // one per ingested row
    PolicyClock clock;
    obs::PhaseProfiler profiler;
    trace::StreamLoadStats stats;

    const Clock::time_point start = Clock::now();
    auto loaded = [&] {
      const SpanScope span(ctx.traced ? ctx.spans : nullptr, "stream_load_azure", ctx.job_span);
      return trace::stream_load_azure({path_}, {}, &stats);
    }();
    const double load_s = seconds_between(start, Clock::now());
    if (!loaded) {
      job.seconds = load_s;
      job.fail("ingest failed: " + loaded.error().to_string());
      return job;
    }
    const trace::Trace& trace = loaded.value().trace;
    util::Pcg32 rng(seed_, /*stream=*/31);
    const sim::Deployment deployment =
        sim::Deployment::random(zoo_, trace.function_count(), rng);
    sim::EngineConfig config;
    config.seed = seed_;
    if (ctx.traced) config.observer.profiler = &profiler;
    sim::SimulationEngine engine(deployment, trace, config);
    sim::RunResult result;
    {
      const auto policy = make_job_policy("openwhisk", ctx.traced ? &clock : nullptr);
      const SpanScope span(ctx.traced ? ctx.spans : nullptr, "SimulationEngine::run",
                           ctx.job_span);
      result = engine.run(*policy);
    }
    job.seconds = seconds_between(start, Clock::now());

    Fingerprint fp;
    fp.add(result);
    fp.add(stats.data_rows);
    job.fingerprint = fp.value();
    job.fn_minutes =
        static_cast<double>(trace.function_count()) * static_cast<double>(trace.duration());
    job.invocations = static_cast<double>(result.invocations + result.failed_invocations);

    char msg[160];
    if (stats.data_rows != kRows) {
      std::snprintf(msg, sizeof(msg), "ingested %llu of %llu rows",
                    static_cast<unsigned long long>(stats.data_rows),
                    static_cast<unsigned long long>(kRows));
      job.fail(msg, stats.data_rows < kRows ? kRows - stats.data_rows : kRows);
    }
    if (trace.total_invocations() != kRows ||
        result.invocations + result.failed_invocations != kRows) {
      std::snprintf(msg, sizeof(msg), "trace holds %llu invocations, run attempted %llu",
                    static_cast<unsigned long long>(trace.total_invocations()),
                    static_cast<unsigned long long>(result.invocations +
                                                    result.failed_invocations));
      job.fail(msg);
    }
    if (result.warm_starts + result.cold_starts != result.invocations) {
      job.fail("warm + cold starts differ from invocations");
    }

    if (ctx.traced) {
      LayerValues& l = job.layers;
      add_policy_layers(l, clock, profiler, job.fn_minutes, job.seconds);
      RunTotals totals;
      totals.add(result);
      totals.to_layers(l);
      l["trace.load_s"] = load_s;
      l["trace.load_share"] = load_s / job.seconds;
      l["trace.rows_per_s"] = static_cast<double>(stats.data_rows) / load_s;
      l["trace.mb_per_s"] = static_cast<double>(stats.bytes) / load_s / (1024.0 * 1024.0);
      l["trace.functions"] = static_cast<double>(trace.function_count());
    }
    return job;
  }

 private:
  std::filesystem::path path_;
  models::ModelZoo zoo_;
  std::uint64_t seed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_ingest_2021(const WorkloadOptions& options) {
  return std::make_unique<Ingest2021>(options);
}

}  // namespace pulse::bench::e2e
