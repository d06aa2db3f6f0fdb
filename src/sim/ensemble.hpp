#pragma once
// Ensemble runner: the paper's "1000 simulation runs, each presenting a
// unique combination of model-to-function assignments". Runs are
// independent — each gets its own Deployment, engine, policy instance and
// RNG stream — so the thread pool parallelizes them without any shared
// mutable state, and results are bit-identical for any thread count.

#include <functional>
#include <vector>

#include "models/zoo.hpp"
#include "sim/engine.hpp"
#include "sim/policy.hpp"
#include "trace/trace.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace pulse::sim {

/// Creates a fresh policy instance for one run.
using PolicyFactory = std::function<std::unique_ptr<KeepAlivePolicy>()>;

struct EnsembleConfig {
  std::size_t runs = 1000;
  std::uint64_t seed = 7;
  EngineConfig engine{};
  std::size_t threads = 0;  // 0 -> hardware concurrency
};

struct EnsembleResult {
  /// One entry per run, in run order.
  std::vector<RunResult> runs;

  /// Merged observability metrics over every run (empty unless
  /// EngineConfig::observer.metrics was attached). Counter and histogram
  /// totals are exact integer sums and therefore independent of the thread
  /// count; gauge sums are floating-point diagnostics.
  obs::MetricsSnapshot metrics;

  /// Aggregates over the runs (totals per run, then averaged — the paper's
  /// "averaging the values across all runs").
  [[nodiscard]] double mean_service_time_s() const;
  [[nodiscard]] double mean_keepalive_cost_usd() const;
  [[nodiscard]] double mean_accuracy_pct() const;
  [[nodiscard]] double mean_warm_fraction() const;

  /// Aggregates `metric(run)` over every run. Templated on the callable so
  /// per-metric sweeps pay no std::function type-erasure dispatch.
  template <typename Metric>
  [[nodiscard]] util::RunningStats stats_of(Metric&& metric) const {
    util::RunningStats stats;
    for (const auto& r : runs) stats.add(metric(r));
    return stats;
  }
};

/// Runs `config.runs` simulations of `trace` with per-run random
/// model-to-function assignments from `zoo`, each under a fresh policy from
/// `factory`. An attached sink is fed through an obs::EventCollector, one
/// lane per worker slot, so event totals and per-type counts are identical
/// for any thread count. A canonical sink is fed once, at the end; a
/// streaming sink receives the slots' batches concurrently.
[[nodiscard]] EnsembleResult run_ensemble(const models::ModelZoo& zoo,
                                          const trace::Trace& trace,
                                          const PolicyFactory& factory,
                                          const EnsembleConfig& config);

}  // namespace pulse::sim
