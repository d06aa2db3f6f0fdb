// serve-icebreaker: a 200-function, 2-day trace rendered once at setup as
// the serving line protocol, held in memory, and fed by LineProtocolSource
// into an OnlineServer under "icebreaker+pulse". The loop is closed with one
// client: the next line is parsed only after ingest() returns, as with a
// pipe. IceBreaker's FFT refits every 10 minutes make the predict layer
// dominate the minute-closing ticks.

#include <cstdio>
#include <optional>
#include <sstream>
#include <vector>

#include "harness.hpp"
#include "serve/line_protocol.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "timed_policy.hpp"
#include "trace/workload.hpp"
#include "util/stats.hpp"

namespace pulse::bench::e2e {
namespace {

constexpr std::size_t kFunctions = 200;
constexpr trace::Minute kDays = 2;
constexpr const char* kPolicy = "icebreaker+pulse";

class ServeIcebreaker final : public Workload {
 public:
  explicit ServeIcebreaker(const WorkloadOptions&) : zoo_(models::ModelZoo::builtin()) {}

  void setup(std::uint64_t seed) override {
    trace::WorkloadConfig config;
    config.function_count = kFunctions;
    config.duration = kDays * trace::kMinutesPerDay;
    config.seed = seed;
    trace_ = trace::build_azure_like_workload(config).trace;

    util::Pcg32 rng(seed, /*stream=*/29);
    deployment_ = sim::Deployment::random(zoo_, trace_.function_count(), rng);

    std::ostringstream out;
    serve::write_line_protocol(trace_, out);
    protocol_ = std::move(out).str();
    if (seed != seed_) batch_fingerprint_.reset();  // same seed, same inputs
    seed_ = seed;
  }

  JobResult run_job(const JobContext& ctx) override {
    JobResult job;
    PolicyClock clock;
    obs::PhaseProfiler profiler;
    serve::ServeConfig config;
    config.horizon = trace_.duration();
    config.engine.seed = seed_;
    if (ctx.traced) config.engine.observer.profiler = &profiler;

    std::istringstream pipe(protocol_);
    serve::ServeStats stats;
    std::uint64_t malformed = 0;
    sim::RunResult result;
    double parse_s = 0.0;
    double invocation_ingest_s = 0.0;
    std::vector<double> tick_s;
    const Clock::time_point start = Clock::now();
    {
      // Declared before the server so the server is destroyed first.
      const auto policy = make_job_policy(kPolicy, ctx.traced ? &clock : nullptr);
      serve::OnlineServer server(deployment_, *policy, config);
      serve::LineProtocolSource source(pipe);
      if (!ctx.traced) {
        server.drain(source);
      } else {
        tick_s.reserve(static_cast<std::size_t>(trace_.duration()));
        serve::StreamEvent event;
        for (;;) {
          const Clock::time_point t0 = Clock::now();
          const bool more = source.next(event);
          const Clock::time_point t1 = Clock::now();
          parse_s += seconds_between(t0, t1);
          if (!more) break;
          server.ingest(event);
          const Clock::time_point t2 = Clock::now();
          if (event.kind == serve::EventKind::kTick) {
            tick_s.push_back(seconds_between(t1, t2));
            if (ctx.spans != nullptr) ctx.spans->add("serve.tick", ctx.job_span, t1, t2);
          } else if (event.kind == serve::EventKind::kInvocation) {
            invocation_ingest_s += seconds_between(t1, t2);
          } else {
            break;  // kEnd
          }
        }
      }
      result = server.finish();
      stats = server.stats();
      malformed = source.malformed_lines();
    }
    job.seconds = seconds_between(start, Clock::now());

    Fingerprint fp;
    fp.add(result);
    job.fingerprint = fp.value();
    job.fn_minutes =
        static_cast<double>(trace_.function_count()) * static_cast<double>(trace_.duration());
    job.invocations = static_cast<double>(result.invocations + result.failed_invocations);
    const std::uint64_t dropped = stats.dropped_late + stats.dropped_out_of_range;
    job.operations = stats.events + malformed;
    if (dropped + malformed > 0) {
      char msg[160];
      std::snprintf(msg, sizeof(msg), "%llu dropped and %llu malformed events",
                    static_cast<unsigned long long>(dropped),
                    static_cast<unsigned long long>(malformed));
      job.fail(msg, dropped + malformed);
    }
    // Outside the timed region: the served result must equal a batch run
    // over the same trace (checked once per setup; later jobs must repeat
    // the fingerprint anyway).
    if (!batch_fingerprint_) batch_fingerprint_ = batch_fingerprint();
    if (job.fingerprint != *batch_fingerprint_) job.fail("served result differs from batch run");

    if (ctx.traced) {
      LayerValues& l = job.layers;
      add_policy_layers(l, clock, profiler, job.fn_minutes, job.seconds);
      RunTotals totals;
      totals.add(result);
      totals.to_layers(l);
      const double ticks_total = [&] {
        double s = 0.0;
        for (const double t : tick_s) s += t;
        return s;
      }();
      const auto events = static_cast<double>(stats.events);
      const auto invocation_events = static_cast<double>(stats.invocation_events);
      l["serve.parse_s"] = parse_s;
      l["serve.parse_ns_per_event"] = events > 0 ? parse_s / events * 1e9 : 0.0;
      l["serve.invocation_ingest_ns"] =
          invocation_events > 0 ? invocation_ingest_s / invocation_events * 1e9 : 0.0;
      l["serve.events"] = events;
      l["serve.dropped_events"] = static_cast<double>(dropped);
      l["serve.malformed_lines"] = static_cast<double>(malformed);
      l["serve.tick_s"] = ticks_total;
      l["serve.ticks"] = static_cast<double>(stats.ticks);
      const double ps[] = {50.0, 99.0};
      const std::vector<double> tick_p = util::percentiles(tick_s, ps);
      l["serve.tick_p50_us"] = tick_p[0] * 1e6;
      l["serve.tick_p99_us"] = tick_p[1] * 1e6;
      l["serve.tick_predict_share"] =
          ticks_total > 0.0 ? l["predict.busy_s"] / ticks_total : 0.0;
    }
    return job;
  }

 private:
  [[nodiscard]] std::uint64_t batch_fingerprint() const {
    sim::EngineConfig config;
    config.seed = seed_;
    sim::SimulationEngine engine(deployment_, trace_, config);
    const auto policy = make_job_policy(kPolicy, nullptr);
    Fingerprint fp;
    fp.add(engine.run(*policy));
    return fp.value();
  }

  models::ModelZoo zoo_;  // the deployment points into it
  trace::Trace trace_;
  sim::Deployment deployment_;
  std::string protocol_;
  std::optional<std::uint64_t> batch_fingerprint_;
  std::uint64_t seed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_serve_icebreaker(const WorkloadOptions& options) {
  return std::make_unique<ServeIcebreaker>(options);
}

}  // namespace pulse::bench::e2e
