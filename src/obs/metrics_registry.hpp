#pragma once
// Named counters / gauges / histograms that the engine and the policies
// register into when observability is enabled.
//
// Naming convention: lower-snake-case, dot-separated, "<component>.<what>"
// — e.g. "engine.cold_starts", "milp.solver_nodes", "guard.incidents".
// Units go last when ambiguous: "engine.keepalive_cost_usd".
//
// Threading model: a registry is single-writer. The ensemble runner gives
// every worker slot its own registry (the existing per-slot machinery) and
// merges them after the pool has joined, so there is never a concurrent
// write. Merge order over integer counters and histogram buckets is
// associative, so merged totals are deterministic for any thread count;
// gauge merges sum doubles and are diagnostics, not paper numbers.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace pulse::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  [[nodiscard]] std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// How MetricsRegistry::merge combines a gauge across per-slot registries.
/// Accumulated totals (cost, service time) sum; high-water marks (peaks)
/// must take the max — summing them double-counts every slot's peak.
enum class GaugeMerge : std::uint8_t { kSum, kMax };

class Gauge {
 public:
  void set(double v) noexcept { value_ = v; }
  void add(double v) noexcept { value_ += v; }
  void max_with(double v) noexcept {
    if (v > value_) value_ = v;
  }
  [[nodiscard]] double value() const noexcept { return value_; }

  void set_merge(GaugeMerge mode) noexcept { merge_ = mode; }
  [[nodiscard]] GaugeMerge merge_mode() const noexcept { return merge_; }

 private:
  double value_ = 0.0;
  GaugeMerge merge_ = GaugeMerge::kSum;
};

/// Collapsed view of one IntHistogram for snapshots.
struct HistogramSummary {
  std::uint64_t total = 0;
  std::uint64_t overflow = 0;
  double mean = 0.0;  // in-range mean
  std::size_t p50 = 0;
  std::size_t p99 = 0;
};

/// Point-in-time copy of a registry, sorted by name. Attached to RunResult
/// and exp::PolicySummary; cheap to compare and to print.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<std::pair<std::string, HistogramSummary>> histograms;

  [[nodiscard]] bool empty() const noexcept {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Value of the named counter, or `fallback` when absent.
  [[nodiscard]] std::uint64_t counter_or(std::string_view name,
                                         std::uint64_t fallback = 0) const noexcept;

  /// Value of the named gauge, or `fallback` when absent.
  [[nodiscard]] double gauge_or(std::string_view name, double fallback = 0.0) const noexcept;
};

class MetricsRegistry {
 public:
  /// Returns the named metric, creating it on first use. References stay
  /// valid for the registry's lifetime (node-based storage), so hot paths
  /// can look up once and keep the pointer.
  Counter& counter(const std::string& name);
  /// `merge` applies on creation (and latches when non-default, so the
  /// registration order of call sites cannot flip a peak gauge to kSum).
  Gauge& gauge(const std::string& name, GaugeMerge merge = GaugeMerge::kSum);
  util::IntHistogram& histogram(const std::string& name, std::size_t capacity = 240);

  [[nodiscard]] MetricsSnapshot snapshot() const;

  /// Folds every metric of `other` into this registry (create-if-missing):
  /// counters and histograms sum; gauges combine per their merge mode —
  /// kSum gauges add, kMax gauges take the maximum. Used to aggregate
  /// per-slot ensemble registries.
  void merge(const MetricsRegistry& other);

  void clear() noexcept;

  [[nodiscard]] std::size_t metric_count() const noexcept {
    return counters_.size() + gauges_.size() + histograms_.size();
  }

 private:
  std::map<std::string, Counter, std::less<>> counters_;
  std::map<std::string, Gauge, std::less<>> gauges_;
  std::map<std::string, util::IntHistogram, std::less<>> histograms_;
};

// ---------------------------------------------------------------------------
// Pre-resolved hot-path handles.
//
// The registry's name lookup is a std::map walk plus string compare — fine
// at finish(), hostile inside a per-invocation or per-minute loop. Hot paths
// instead resolve each name ONCE into a handle (the registry's node-based
// storage keeps the pointer valid), and every add goes straight into the
// registry through that cached pointer. Components group their handles into
// a plain bundle struct (see e.g. GlobalOptimizer::Metrics) so attaching
// observability stays one bind() pass. An unbound handle (observability
// disabled) makes add() a no-op, so call sites need no null guards.

struct CounterHandle {
  void bind(MetricsRegistry& registry, const std::string& name) {
    counter_ = &registry.counter(name);
  }
  void add(std::uint64_t n = 1) noexcept {
    if (counter_ != nullptr) counter_->add(n);
  }
  [[nodiscard]] bool bound() const noexcept { return counter_ != nullptr; }

 private:
  Counter* counter_ = nullptr;
};

/// A GaugeMerge::kSum gauge (a running total). High-water marks go through
/// Gauge::max_with on the registry's gauge directly.
struct GaugeHandle {
  void bind(MetricsRegistry& registry, const std::string& name) {
    gauge_ = &registry.gauge(name);
  }
  void add(double v) noexcept {
    if (gauge_ != nullptr) gauge_->add(v);
  }
  [[nodiscard]] bool bound() const noexcept { return gauge_ != nullptr; }

 private:
  Gauge* gauge_ = nullptr;
};

/// Histograms bucket on add; record() is one array increment.
struct HistogramHandle {
  void bind(MetricsRegistry& registry, const std::string& name, std::size_t capacity = 240) {
    histogram_ = &registry.histogram(name, capacity);
  }
  void record(std::size_t value, std::uint64_t weight = 1) {
    if (histogram_ != nullptr) histogram_->add(value, weight);
  }
  [[nodiscard]] bool bound() const noexcept { return histogram_ != nullptr; }

 private:
  util::IntHistogram* histogram_ = nullptr;
};

}  // namespace pulse::obs
