// paper-ensemble: the paper's own evaluation (Fig 6). The 12-function,
// 14-day scenario every figure bench replays; one job is a 200-run ensemble
// under PULSE plus one under OpenWhisk. Few functions over long traces, no
// capacity limit: the policy layer (PULSE's core) dominates, and there is no
// eviction, ingest or cluster work.
//
// As in the paper, the trace is fixed and the ensemble randomizes the
// model-to-function assignments: --seed draws the assignments and latency
// jitter. (A seeded 12-function trace would move the invocation count by
// about 15% from seed to seed, more than any bound the metrics could hold.)

#include <cstdio>

#include "exp/scenario.hpp"
#include "harness.hpp"
#include "sim/ensemble.hpp"
#include "timed_policy.hpp"

namespace pulse::bench::e2e {
namespace {

constexpr std::size_t kFunctions = 12;
constexpr trace::Minute kDays = 14;
constexpr std::size_t kRunsPerPolicy = 200;

class PaperEnsemble final : public Workload {
 public:
  explicit PaperEnsemble(const WorkloadOptions& options) : threads_(options.threads) {}

  void setup(std::uint64_t seed) override {
    exp::ScenarioConfig config;  // the default scenario seed
    config.function_count = kFunctions;
    config.days = kDays;
    scenario_ = exp::make_scenario(config);
    seed_ = seed;
  }

  JobResult run_job(const JobContext& ctx) override {
    const trace::Trace& trace = scenario_.workload.trace;
    JobResult job;
    job.operations = 2 * kRunsPerPolicy;

    PolicyClock clock;
    obs::PhaseProfiler profiler;
    sim::EnsembleConfig config;
    config.runs = kRunsPerPolicy;
    config.seed = seed_;
    config.threads = threads_;
    if (ctx.traced) config.engine.observer.profiler = &profiler;

    const auto run = [&](const char* policy) {
      const SpanScope span(ctx.traced ? ctx.spans : nullptr,
                           std::string("run_ensemble:") + policy, ctx.job_span);
      return sim::run_ensemble(
          scenario_.zoo, trace,
          [&] { return make_job_policy(policy, ctx.traced ? &clock : nullptr); }, config);
    };
    const Clock::time_point start = Clock::now();
    const sim::EnsembleResult pulse = run("pulse");
    const sim::EnsembleResult openwhisk = run("openwhisk");
    job.seconds = seconds_between(start, Clock::now());

    Fingerprint fp;
    RunTotals totals;
    for (const sim::EnsembleResult* e : {&pulse, &openwhisk}) {
      for (const sim::RunResult& r : e->runs) {
        fp.add(r);
        totals.add(r);
        job.invocations += static_cast<double>(r.invocations + r.failed_invocations);
        if (r.warm_starts + r.cold_starts != r.invocations) {
          job.fail("a run's warm + cold starts differ from its invocations", 1);
        }
      }
    }
    job.fingerprint = fp.value();
    job.fn_minutes = static_cast<double>(job.operations) *
                     static_cast<double>(trace.function_count()) *
                     static_cast<double>(trace.duration());

    // EXPERIMENTS.md Fig 6 ordering: PULSE beats OpenWhisk on both axes.
    const double pulse_cost = pulse.mean_keepalive_cost_usd();
    const double ow_cost = openwhisk.mean_keepalive_cost_usd();
    const double pulse_service = pulse.mean_service_time_s();
    const double ow_service = openwhisk.mean_service_time_s();
    if (!(pulse_cost < ow_cost && pulse_service < ow_service)) {
      char msg[200];
      std::snprintf(msg, sizeof(msg),
                    "Fig 6 ordering broken: PULSE cost %.6g vs OpenWhisk %.6g, service "
                    "%.6g s vs %.6g s",
                    pulse_cost, ow_cost, pulse_service, ow_service);
      job.fail(msg);
    }

    if (ctx.traced) {
      add_policy_layers(job.layers, clock, profiler, job.fn_minutes,
                        job.seconds * static_cast<double>(threads_));
      totals.to_layers(job.layers);
    }
    return job;
  }

 private:
  std::size_t threads_;
  exp::Scenario scenario_;
  std::uint64_t seed_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_paper_ensemble(const WorkloadOptions& options) {
  return std::make_unique<PaperEnsemble>(options);
}

}  // namespace pulse::bench::e2e
