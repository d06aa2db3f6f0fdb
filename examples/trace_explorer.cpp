// trace_explorer: workload analysis tooling.
//
// Generates (or loads) a trace, then prints per-function statistics, the
// inter-arrival profiles behind the paper's Figures 1-2, and the aggregate
// invocation peaks. Can export the trace to CSV for external tooling.
//
// --profile runs a PULSE simulation over the trace with the observability
// layer fully attached (ring-buffer event sink + metrics registry + phase
// profiler) and prints where the policy spends its time, the engine/policy
// counters, and the event mix. --events additionally streams every event
// (plus per-minute kMinuteSample anchors) to a JSONL file for external
// tooling.
//
// --replay reverses --events: it reconstructs the run's per-minute cost and
// cold-start curves from a JSONL event file alone — no trace, no
// simulation — and prints the replayed totals.
//
// --format selects the --load parser: "csv" (the Trace::save_csv round
// trip, default) or the streaming Azure ingestion front end ("auto",
// "azure2019", "azure2021") which accepts a comma-separated list of files
// (e.g. consecutive 2019 day CSVs). --stream-stats prints the ingestion
// counters and throughput. --scenario derives a workload from the loaded
// or generated trace (drift, flash-crowd, multi-tenant) at --scenario-seed.
//
//   ./trace_explorer [--days=3] [--seed=42] [--load=trace.csv] [--save=trace.csv]
//                    [--format=csv|auto|azure2019|azure2021] [--stream-stats]
//                    [--scenario=drift|flash-crowd|multi-tenant] [--scenario-seed=42]
//                    [--validate] [--profile] [--events=events.jsonl]
//   ./trace_explorer --replay=events.jsonl

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <stdexcept>

#include "core/pulse_policy.hpp"
#include "exp/replay.hpp"
#include "exp/scenario.hpp"
#include "models/zoo.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_sink.hpp"
#include "sim/engine.hpp"
#include "trace/analysis.hpp"
#include "trace/azure_stream.hpp"
#include "trace/classifier.hpp"
#include "trace/validation.hpp"
#include "trace/workload.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

// Runs one PULSE simulation with every observability component attached
// and prints the phase/metric/event breakdown.
int run_profile(const pulse::trace::Trace& tr, const std::string& events_path) {
  using namespace pulse;

  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, tr.function_count());

  obs::RingBufferSink ring(8192);
  obs::MetricsRegistry registry;
  obs::PhaseProfiler profiler;
  std::unique_ptr<obs::JsonlFileSink> file_sink;
  if (!events_path.empty()) {
    file_sink = std::make_unique<obs::JsonlFileSink>(events_path);
  }

  sim::EngineConfig config;
  config.observer.sink = file_sink ? static_cast<obs::TraceSink*>(file_sink.get())
                                   : static_cast<obs::TraceSink*>(&ring);
  config.observer.metrics = &registry;
  config.observer.profiler = &profiler;
  // A JSONL export should be replayable (--replay), so emit the per-minute
  // anchors the replayer reconstructs the cost curve from.
  config.emit_minute_samples = file_sink != nullptr;

  sim::SimulationEngine engine(deployment, tr, config);
  core::PulsePolicy policy;
  const sim::RunResult result = engine.run(policy);

  std::printf("\nprofile of one PULSE run (%zu functions, %lld minutes):\n",
              tr.function_count(), static_cast<long long>(tr.duration()));

  util::TextTable phases({"Phase", "Calls", "Total (ms)", "Mean (us)"});
  for (std::size_t i = 0; i < obs::kPhaseCount; ++i) {
    const auto phase = static_cast<obs::Phase>(i);
    const obs::PhaseStats& st = profiler.stats(phase);
    phases.add_row({std::string(obs::to_string(phase)), std::to_string(st.calls),
                    util::fmt(st.total_s * 1e3, 2), util::fmt(st.mean_s() * 1e6, 2)});
  }
  std::printf("%s", phases.render().c_str());
  std::printf("schedule / optimize are whole on_invocation / end_of_minute calls, timed at\n"
              "the engine; calls are exact, schedule time samples 1 call in %llu, scaled.\n",
              static_cast<unsigned long long>(sim::PolicyCallTimer::kScheduleSampleEvery));

  const obs::MetricsSnapshot snap = registry.snapshot();
  util::TextTable counters({"Counter", "Value"});
  for (const auto& [name, value] : snap.counters) {
    counters.add_row({name, std::to_string(value)});
  }
  std::printf("\n%s", counters.render().c_str());
  if (!snap.histograms.empty()) {
    util::TextTable hists({"Histogram", "Total", "Mean", "P50", "P99"});
    for (const auto& [name, h] : snap.histograms) {
      hists.add_row({name, std::to_string(h.total), util::fmt(h.mean, 2),
                     std::to_string(h.p50), std::to_string(h.p99)});
    }
    std::printf("\n%s", hists.render().c_str());
  }

  if (file_sink) {
    try {
      file_sink->flush();
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("\nwrote %llu events to %s\n",
                static_cast<unsigned long long>(file_sink->lines_written()),
                events_path.c_str());
  } else {
    util::TextTable events({"Event", "Count"});
    const std::vector<std::uint64_t> counts = ring.counts_by_type();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      events.add_row({std::string(obs::to_string(static_cast<obs::EventType>(i))),
                      std::to_string(counts[i])});
    }
    std::printf("\n%s", events.render().c_str());
    if (ring.dropped() > 0) {
      std::printf("(ring buffer kept the newest %zu of %llu events)\n", ring.events().size(),
                  static_cast<unsigned long long>(ring.recorded()));
    }
  }

  std::printf(
      "\nrun: %llu invocations, %.1f%% warm, cost $%.2f, %llu downgrades\n",
      static_cast<unsigned long long>(result.invocations),
      100.0 * result.warm_start_fraction(), result.total_keepalive_cost_usd,
      static_cast<unsigned long long>(result.downgrades));
  return 0;
}

// Reconstructs a run from a JSONL event file (the --events output) and
// prints the replayed curves — the offline half of the observability layer.
int run_replay(const std::string& path) {
  using namespace pulse;

  exp::ReplayResult replay;
  try {
    replay = exp::replay_events_file(path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf("replayed %llu events over %lld minutes from %s\n",
              static_cast<unsigned long long>(replay.events),
              static_cast<long long>(replay.duration), path.c_str());
  if (replay.skipped_lines > 0) {
    std::printf("  (%llu malformed/unknown lines skipped)\n",
                static_cast<unsigned long long>(replay.skipped_lines));
  }

  util::TextTable events({"Event", "Count"});
  for (std::size_t i = 0; i < replay.counts_by_type.size(); ++i) {
    if (replay.counts_by_type[i] == 0) continue;
    events.add_row({std::string(obs::to_string(static_cast<obs::EventType>(i))),
                    std::to_string(replay.counts_by_type[i])});
  }
  std::printf("\n%s", events.render().c_str());

  std::printf("\nreconstruction:\n");
  std::printf("  cold starts: %llu\n",
              static_cast<unsigned long long>(replay.total_cold_starts()));
  if (replay.minute_samples > 0) {
    std::printf("  keep-alive cost: $%.4f\n", replay.total_keepalive_cost_usd());
    std::printf("  peak keep-alive memory: %.1f MB\n", replay.peak_memory_mb());
    if (replay.minute_samples < static_cast<std::uint64_t>(replay.duration)) {
      std::printf("  (%llu of %lld minutes carried a sample; unsampled minutes cost $0)\n",
                  static_cast<unsigned long long>(replay.minute_samples),
                  static_cast<long long>(replay.duration));
    }
  } else {
    std::printf("  (no minute_sample events: cost curve unavailable — export with\n"
                "   --profile --events, which enables per-minute anchors)\n");
  }
  return 0;
}

std::vector<std::filesystem::path> split_paths(const std::string& list) {
  std::vector<std::filesystem::path> paths;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t comma = list.find(',', begin);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    if (end > begin) paths.emplace_back(list.substr(begin, end - begin));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return paths;
}

void print_stream_stats(const pulse::trace::StreamLoadStats& stats, double seconds) {
  using namespace pulse;
  util::TextTable table({"Ingestion", "Value"});
  table.add_row({"format", std::string(trace::to_string(stats.format))});
  table.add_row({"files", std::to_string(stats.files)});
  table.add_row({"bytes", std::to_string(stats.bytes)});
  table.add_row({"data rows", std::to_string(stats.data_rows)});
  table.add_row({"invocations", std::to_string(stats.invocations)});
  table.add_row({"duplicate rows merged", std::to_string(stats.duplicate_rows)});
  table.add_row({"pre-epoch rows clamped", std::to_string(stats.clamped_rows)});
  table.add_row({"longest line (bytes)", std::to_string(stats.max_line_bytes)});
  table.add_row({"elapsed (s)", util::fmt(seconds, 3)});
  if (seconds > 0.0) {
    table.add_row({"rows/s", util::fmt(static_cast<double>(stats.data_rows) / seconds, 0)});
    table.add_row(
        {"MB/s", util::fmt(static_cast<double>(stats.bytes) / seconds / (1024.0 * 1024.0), 1)});
  }
  std::printf("\n%s", table.render().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pulse;

  util::CliParser cli("trace_explorer: inspect synthetic or saved serverless traces");
  cli.add_flag("days", "3", "trace length in days (generation)");
  cli.add_flag("functions", "12", "number of functions (generation)");
  cli.add_flag("seed", "42", "workload seed (generation)");
  cli.add_flag("load", "", "load a trace instead of generating one (comma-separated "
                           "paths for the azure formats)");
  cli.add_flag("format", "csv",
               "--load parser: csv | auto | azure2019 | azure2021 (auto sniffs "
               "the Azure format from the first line)");
  cli.add_switch("stream-stats", "print streaming ingestion counters and throughput");
  cli.add_flag("scenario", "",
               "derive a workload from the trace: drift | flash-crowd | multi-tenant");
  cli.add_flag("scenario-seed", "42", "seed for --scenario randomness");
  cli.add_flag("save", "", "save the trace to this CSV path");
  cli.add_flag("peaks", "2", "number of aggregate peaks to report");
  cli.add_switch("validate", "run the ingestion validation pass and report issues");
  cli.add_switch("profile", "simulate PULSE over the trace with the observability layer on");
  cli.add_flag("events", "", "with --profile: stream events to this JSONL file");
  cli.add_flag("replay", "", "reconstruct a run from a JSONL event file and exit");
  if (!cli.parse(argc, argv)) {
    std::fprintf(stderr, "%s\n%s", cli.error().c_str(), cli.usage().c_str());
    return 1;
  }
  if (cli.help_requested()) {
    std::printf("%s", cli.usage().c_str());
    return 0;
  }

  // Replay mode needs no trace at all: the event stream is the input.
  if (const std::string path = cli.get_string("replay"); !path.empty()) {
    return run_replay(path);
  }

  trace::Trace tr;
  std::vector<std::string> labels;
  if (const std::string path = cli.get_string("load"); !path.empty()) {
    const std::string format_name = cli.get_string("format");
    if (format_name == "csv") {
      // Hardened loader: a malformed file is a diagnosed error, not a crash.
      auto loaded = trace::Trace::try_load_csv(path);
      if (!loaded) {
        std::fprintf(stderr, "error: %s\n", loaded.error().to_string().c_str());
        return 1;
      }
      tr = std::move(loaded.value());
      std::printf("loaded %s\n", path.c_str());
    } else {
      trace::StreamLoadOptions options;
      if (format_name != "auto") {
        options.format = trace::parse_trace_format(format_name);
        if (options.format == trace::TraceFormat::kUnknown) {
          std::fprintf(stderr, "error: unknown --format '%s' (csv, auto, azure2019, "
                               "azure2021)\n",
                       format_name.c_str());
          return 1;
        }
      }
      const std::vector<std::filesystem::path> paths = split_paths(path);
      trace::StreamLoadStats stats;
      const auto t0 = std::chrono::steady_clock::now();
      auto loaded = trace::stream_load_azure(paths, options, &stats);
      const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - t0;
      if (!loaded) {
        std::fprintf(stderr, "error: %s\n", loaded.error().to_string().c_str());
        return 1;
      }
      tr = std::move(loaded.value().trace);
      std::printf("streamed %zu file(s) [%s]: %zu functions over %lld minutes\n",
                  paths.size(), std::string(trace::to_string(stats.format)).c_str(),
                  tr.function_count(), static_cast<long long>(tr.duration()));
      if (cli.get_bool("stream-stats")) print_stream_stats(stats, elapsed.count());
    }
  } else {
    trace::WorkloadConfig config;
    config.function_count = static_cast<std::size_t>(cli.get_int("functions"));
    config.duration = cli.get_int("days") * trace::kMinutesPerDay;
    config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    trace::Workload workload = trace::build_azure_like_workload(config);
    tr = std::move(workload.trace);
  }

  if (const std::string name = cli.get_string("scenario"); !name.empty()) {
    try {
      tr = exp::make_derived_scenario(tr, name,
                                      static_cast<std::uint64_t>(cli.get_int("scenario-seed")));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    std::printf("derived scenario '%s': %zu functions, %llu invocations\n", name.c_str(),
                tr.function_count(),
                static_cast<unsigned long long>(tr.total_invocations()));
  }

  if (cli.get_bool("validate")) {
    const trace::ValidationReport report = trace::validate_trace(tr);
    std::printf("\nvalidation: %zu error(s), %zu warning(s)\n", report.error_count(),
                report.warning_count());
    for (const auto& issue : report.issues) {
      const char* severity =
          issue.severity == trace::ValidationSeverity::kError ? "ERROR" : "warn";
      if (issue.function < tr.function_count()) {
        std::printf("  [%s] %s: %s\n", severity, tr.function_name(issue.function).c_str(),
                    issue.message.c_str());
      } else {
        std::printf("  [%s] %s\n", severity, issue.message.c_str());
      }
    }
    if (!report.ok()) return 2;
  }

  // Per-function summary with pattern classification (Figure 1 triage).
  util::TextTable table({"Function", "Class", "Invocations", "Active minutes",
                         "Mean gap (min)", "P(next within 10 min)"});
  for (trace::FunctionId f = 0; f < tr.function_count(); ++f) {
    const auto gaps = trace::interarrival_gaps(tr, f);
    std::vector<double> gap_values(gaps.begin(), gaps.end());
    const auto profile = trace::interarrival_profile(tr, f);
    double within = 0.0;
    for (double pct : profile.within_window) within += pct;
    table.add_row({tr.function_name(f), std::string(trace::to_string(trace::classify(tr, f))),
                   std::to_string(tr.total_invocations(f)),
                   std::to_string(tr.invocation_minutes(f).size()),
                   util::fmt(util::mean(gap_values), 1), util::fmt(within, 1) + "%"});
  }
  std::printf("\n%s", table.render().c_str());

  // Inter-arrival profile of the busiest function (Figure 1 style).
  trace::FunctionId busiest = 0;
  for (trace::FunctionId f = 1; f < tr.function_count(); ++f) {
    if (tr.total_invocations(f) > tr.total_invocations(busiest)) busiest = f;
  }
  const auto profile = trace::interarrival_profile(tr, busiest);
  std::printf("\ninter-arrival profile of %s (%% of invocations, offsets 1..10):\n ",
              tr.function_name(busiest).c_str());
  for (double pct : profile.within_window) std::printf(" %5.1f", pct);
  std::printf("  (beyond window: %.1f%%)\n", profile.beyond_window);

  // Aggregate peaks (Observation 2 of the paper).
  const auto peaks =
      trace::find_peak_minutes(tr, static_cast<std::size_t>(cli.get_int("peaks")));
  std::printf("\naggregate invocation peaks:\n");
  for (trace::Minute p : peaks) {
    std::printf("  minute %6lld: %llu invocations across all functions\n",
                static_cast<long long>(p),
                static_cast<unsigned long long>(tr.invocations_at(p)));
  }

  if (const std::string path = cli.get_string("save"); !path.empty()) {
    tr.save_csv(path);
    std::printf("\nsaved trace to %s\n", path.c_str());
  }

  if (cli.get_bool("profile")) {
    return run_profile(tr, cli.get_string("events"));
  }
  return 0;
}
