// simulate: the full-featured simulation driver.
//
// Everything the library offers behind one command line: generate or load a
// trace (native or Azure day format), pick the model zoo (built-in or CSV),
// choose any registered policy, optionally cap cluster memory, run a single
// seeded simulation or a multi-run ensemble, and export results as a
// summary table, per-function breakdown, CSV, or artifact-layout files.
//
//   ./simulate --policy=pulse --days=7 --runs=100 --artifact-dir=out/
//   ./simulate --policy=openwhisk --azure-days=d1.csv,d2.csv --top=12
//   ./simulate --policy=milp --capacity-mb=8000 --per-function

#include <cstdio>
#include <fstream>
#include <sstream>

#include "exp/artifact.hpp"
#include "policies/factory.hpp"
#include "sim/engine.hpp"
#include "sim/ensemble.hpp"
#include "trace/azure_stream.hpp"
#include "trace/classifier.hpp"
#include "trace/workload.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> out;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pulse;

  util::CliParser cli("simulate: serverless keep-alive simulation driver");
  cli.add_flag("policy", "pulse", "policy name (see --list-policies)");
  cli.add_switch("list-policies", "print registered policy names and exit");
  // Workload sources.
  cli.add_flag("days", "7", "generated trace length in days");
  cli.add_flag("functions", "12", "generated trace function count");
  cli.add_flag("seed", "42", "generation / simulation seed");
  cli.add_flag("trace", "", "load a native trace CSV instead of generating");
  cli.add_flag("azure-days", "", "comma-separated Azure day CSVs to load");
  cli.add_flag("top", "12", "keep the top-K functions of an Azure trace");
  // Models.
  cli.add_flag("zoo", "", "load a model zoo CSV (default: built-in Table I zoo)");
  // Execution.
  cli.add_flag("runs", "1", "ensemble size (1 = single run, round-robin deployment)");
  cli.add_flag("capacity-mb", "0", "absolute keep-alive memory capacity (0 = unlimited)");
  cli.add_switch("per-function", "print the per-function breakdown (single run only)");
  cli.add_switch("classify", "print each function's invocation-pattern class");
  // Outputs.
  cli.add_flag("csv", "", "append a summary row to this CSV");
  cli.add_flag("artifact-dir", "", "write paper-artifact-layout metric files here");

  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", cli.error().c_str(), cli.usage().c_str());
    return 1;
  }
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }
  if (cli.get_bool("list-policies")) {
    for (const auto& name : policies::policy_names()) std::printf("%s\n", name.c_str());
    return 0;
  }

  try {
    // --- workload ---
    trace::Trace tr;
    if (const std::string paths = cli.get_string("azure-days"); !paths.empty()) {
      std::vector<std::filesystem::path> files;
      for (const auto& p : split_list(paths)) files.emplace_back(p);
      trace::StreamLoadOptions options;
      options.format = trace::TraceFormat::kAzure2019Day;
      const auto azure = trace::stream_load_azure(files, options);
      if (!azure) {
        std::fprintf(stderr, "error: %s\n", azure.error().to_string().c_str());
        return 1;
      }
      tr = trace::select_top_functions(azure.value(),
                                       static_cast<std::size_t>(cli.get_int("top")));
      std::printf("loaded Azure trace: %zu functions kept of %zu, %lld minutes\n",
                  tr.function_count(), azure.value().functions.size(),
                  static_cast<long long>(tr.duration()));
    } else if (const std::string path = cli.get_string("trace"); !path.empty()) {
      auto loaded = trace::Trace::try_load_csv(path);
      if (!loaded) {
        std::fprintf(stderr, "error: %s\n", loaded.error().to_string().c_str());
        return 1;
      }
      tr = std::move(loaded.value());
      std::printf("loaded trace: %zu functions, %lld minutes\n", tr.function_count(),
                  static_cast<long long>(tr.duration()));
    } else {
      trace::WorkloadConfig wconfig;
      wconfig.function_count = static_cast<std::size_t>(cli.get_int("functions"));
      wconfig.duration = cli.get_int("days") * trace::kMinutesPerDay;
      wconfig.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
      tr = trace::build_azure_like_workload(wconfig).trace;
    }

    if (cli.get_bool("classify")) {
      util::TextTable classes({"Function", "Class", "Invocations"});
      for (trace::FunctionId f = 0; f < tr.function_count(); ++f) {
        classes.add_row({tr.function_name(f),
                         std::string(trace::to_string(trace::classify(tr, f))),
                         std::to_string(tr.total_invocations(f))});
      }
      std::printf("\n%s", classes.render().c_str());
    }

    // --- models ---
    models::ModelZoo zoo = cli.get_string("zoo").empty()
                               ? models::ModelZoo::builtin()
                               : models::ModelZoo::load_csv(cli.get_string("zoo"));

    const std::string policy_name = cli.get_string("policy");
    const auto runs = static_cast<std::size_t>(cli.get_int("runs"));
    const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const double capacity = cli.get_double("capacity-mb");

    util::TextTable summary({"Policy", "Runs", "Cost ($)", "Service Time (s)",
                             "Accuracy (%)", "Warm (%)", "Evictions"});

    if (runs <= 1) {
      // Single seeded run with full diagnostics.
      const sim::Deployment deployment =
          sim::Deployment::round_robin(zoo, tr.function_count());
      sim::EngineConfig config;
      config.seed = seed;
      config.memory_capacity_mb = capacity;
      config.record_per_function = cli.get_bool("per-function");
      sim::SimulationEngine engine(deployment, tr, config);
      const auto policy = policies::make_policy(policy_name);
      const sim::RunResult r = engine.run(*policy);

      summary.add_row({policy->name(), "1", util::fmt(r.total_keepalive_cost_usd),
                       util::fmt(r.total_service_time_s, 0),
                       util::fmt(r.average_accuracy_pct()),
                       util::fmt(100.0 * r.warm_start_fraction(), 1),
                       std::to_string(r.capacity_evictions)});
      std::printf("\n%s", summary.render().c_str());

      if (cli.get_bool("per-function")) {
        util::TextTable per({"Function", "Model", "Invocations", "Warm", "Cold",
                             "Mean svc (s)", "Accuracy (%)"});
        for (trace::FunctionId f = 0; f < r.per_function.size(); ++f) {
          const auto& fm = r.per_function[f];
          per.add_row({tr.function_name(f), deployment.family_of(f).name(),
                       std::to_string(fm.invocations), std::to_string(fm.warm_starts),
                       std::to_string(fm.cold_starts), util::fmt(fm.mean_service_time_s()),
                       util::fmt(fm.average_accuracy_pct())});
        }
        std::printf("\n%s", per.render().c_str());
      }
    } else {
      sim::EnsembleConfig config;
      config.runs = runs;
      config.seed = seed;
      config.engine.memory_capacity_mb = capacity;
      const sim::EnsembleResult ensemble = sim::run_ensemble(
          zoo, tr, [&] { return policies::make_policy(policy_name); }, config);

      summary.add_row({policy_name, std::to_string(runs),
                       util::fmt(ensemble.mean_keepalive_cost_usd()),
                       util::fmt(ensemble.mean_service_time_s(), 0),
                       util::fmt(ensemble.mean_accuracy_pct()),
                       util::fmt(100.0 * ensemble.mean_warm_fraction(), 1), "-"});
      std::printf("\n%s", summary.render().c_str());

      if (const std::string dir = cli.get_string("artifact-dir"); !dir.empty()) {
        const exp::ArtifactFiles files =
            exp::write_artifact_files(dir, policy_name, ensemble);
        std::printf("\nartifact files:\n  %s\n  %s\n  %s\n",
                    files.service_time.string().c_str(),
                    files.keepalive_cost.string().c_str(),
                    files.accuracy.string().c_str());
      }
    }

    if (const std::string path = cli.get_string("csv"); !path.empty()) {
      const bool exists = std::filesystem::exists(path);
      std::ofstream os(path, std::ios::app);
      if (!exists) os << "policy,runs,days,functions,seed,capacity_mb\n";
      os << policy_name << ',' << runs << ',' << tr.duration() / trace::kMinutesPerDay
         << ',' << tr.function_count() << ',' << seed << ',' << capacity << '\n';
      std::printf("\nappended summary to %s\n", path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
