#pragma once
// Shared pieces of the end-to-end benchmark: the metric table, the workload
// interface, the span log of a traced run, and the run fingerprint the
// correctness gates compare.
//
// A workload owns its inputs (built by setup(), which the runner repeats and
// times) and runs one job per run_job() call. A job times its own region, so
// checks that must stay outside it (the serve workload's batch reference
// run) happen after the clock stops.

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "obs/profiler.hpp"
#include "sim/metrics.hpp"

namespace pulse::bench::e2e {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Metric table. BENCHMARK.json at the repository root lists the same names,
// units, directions and bounds; the result JSONL lines carry them too.
// ---------------------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;  // "lower" or "higher"
  double bound;        // allowed worsening as a share of the parent's median; <0 = none
};

[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// Per-layer values of one traced job, keyed by metric name. Names a
/// workload does not exercise are reported as 0.
using LayerValues = std::map<std::string, double, std::less<>>;

// ---------------------------------------------------------------------------
// Spans: coarse layer boundaries of a traced run, kept in memory and written
// as JSONL when the run ends. Fine-grained calls are aggregated instead.
// ---------------------------------------------------------------------------

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  /// Opens a span now and returns its id; `parent` is -1 for a root span.
  int open(std::string name, int parent = -1);
  void close(int id);

  /// Records an already-timed span.
  void add(std::string name, int parent, Clock::time_point start, Clock::time_point end);

  /// One JSON object per line: id, parent, name, start_s, end_s (seconds
  /// since the log was created). Returns false when the file cannot be written.
  bool write_jsonl(const std::filesystem::path& path) const;

 private:
  struct Span {
    std::string name;
    int parent;
    double start_s;
    double end_s;
  };
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; inert when
/// the log is null (untraced runs).
class SpanScope {
 public:
  SpanScope(SpanLog* log, std::string name, int parent)
      : log_(log), id_(log != nullptr ? log->open(std::move(name), parent) : -1) {}
  ~SpanScope() {
    if (log_ != nullptr) log_->close(id_);
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  SpanLog* log_;
  int id_;
};

// ---------------------------------------------------------------------------
// Fingerprint: FNV-1a over the bit patterns of a run's cost, service time,
// accuracy sum and counters. Equal fingerprints mean bit-identical results.
// ---------------------------------------------------------------------------

class Fingerprint {
 public:
  void add(std::uint64_t v) noexcept;
  void add(double v) noexcept;
  void add(const sim::RunResult& r) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// ---------------------------------------------------------------------------
// Workload interface
// ---------------------------------------------------------------------------

struct JobContext {
  /// Wrap policies in TimedPolicy, attach a PhaseProfiler and fill
  /// JobResult::layers. Off for every job whose time is reported end to end.
  bool traced = false;
  /// Span log of a --trace run (null otherwise) and the enclosing job span.
  SpanLog* spans = nullptr;
  int job_span = -1;
};

struct JobResult {
  double seconds = 0.0;             // the job's timed region
  std::uint64_t fingerprint = 0;    // simulation fingerprint (see Fingerprint)
  double fn_minutes = 0.0;          // simulated function-minutes
  double invocations = 0.0;         // attempted invocations (served + failed)
  std::uint64_t operations = 0;     // operations the gates checked
  std::uint64_t failed_operations = 0;
  std::vector<std::string> failures;  // one message per failed gate
  LayerValues layers;                 // traced jobs only

  /// Records a failed gate; `ops` operations (default: all) count as failed.
  void fail(std::string message, std::uint64_t ops);
  void fail(std::string message) { fail(std::move(message), operations); }
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the inputs from `seed`, replacing any previous ones.
  virtual void setup(std::uint64_t seed) = 0;

  /// Runs one job over the current inputs.
  virtual JobResult run_job(const JobContext& ctx) = 0;
};

struct WorkloadOptions {
  std::size_t threads = 1;          // worker threads, min(4, available CPUs)
  std::filesystem::path workdir;    // scratch files (the ingest workload's trace file)
};

std::unique_ptr<Workload> make_paper_ensemble(const WorkloadOptions& options);
std::unique_ptr<Workload> make_cluster_pressure(const WorkloadOptions& options);
std::unique_ptr<Workload> make_serve_icebreaker(const WorkloadOptions& options);
std::unique_ptr<Workload> make_ingest_2021(const WorkloadOptions& options);

/// Builds a workload by name; nullptr for unknown names.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      const WorkloadOptions& options);
[[nodiscard]] const std::vector<std::string_view>& workload_names();

// ---------------------------------------------------------------------------
// Layer helpers shared by the workloads
// ---------------------------------------------------------------------------

struct PolicyClock;  // timed_policy.hpp

/// policies.*, predict.busy_s and sim.busy_s / self_s / self_ns_per_fn_minute
/// from the policy clock and the profiler's kSimulate and kPredict phases.
/// `thread_seconds` is the job's wall time times its worker threads, the
/// base of policies.job_share.
void add_policy_layers(LayerValues& out, const PolicyClock& clock,
                       const obs::PhaseProfiler& profiler, double fn_minutes,
                       double thread_seconds);

/// Running totals of the RunResult counters the sim.* and fault.* layer
/// metrics read.
struct RunTotals {
  std::uint64_t invocations = 0;
  std::uint64_t cold_starts = 0;
  std::uint64_t downgrades = 0;
  std::uint64_t capacity_evictions = 0;
  std::uint64_t failed_invocations = 0;
  std::uint64_t crash_evictions = 0;

  void add(const sim::RunResult& r) noexcept;
  void to_layers(LayerValues& out) const;
};

}  // namespace pulse::bench::e2e
