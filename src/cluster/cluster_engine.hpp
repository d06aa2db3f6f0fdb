#pragma once
// Sharded cluster engine: million-function populations across N worker
// shards coordinated by a cross-shard capacity market.
//
// The single SimulationEngine replays one catalog in one thread; at
// cluster scale (100k–1M functions) that is both too slow and the wrong
// model — real platforms spread the catalog over many hosts, each with its
// own memory pool. ClusterEngine hash-partitions the catalog (partition.hpp),
// gives every shard its own SteppedRun — capacity pool, keep-alive
// schedule, fault stream, policy instance and RNG streams — and steps all
// shards concurrently on a ThreadPool. The shards hold no copy of the
// trace: each reads the catalog's per-minute series through a read-only
// trace::Trace::project view, and its deployment shares the catalog's
// model families. At every rebalance epoch the shards hit a barrier,
// report pressure signals, and the CapacityMarket (market.hpp) re-trades
// memory quota between them.
//
// Determinism contract:
//   * One shard: bitwise-identical RunResult to SimulationEngine on the
//     same inputs (the partition is the identity and the market never
//     runs).
//   * Fixed (seed, shard count): bit-identical ClusterResult for any
//     thread count — shards share nothing mutable, and all market /
//     event / merge work happens on the coordinating thread between
//     barriers, in shard order.
//   * Samples and faults are keyed on catalog-global function ids (each
//     function draws from its own streams), so aggregate behaviour is
//     invariant to the shard count as well (capacity effects excepted —
//     quota partitioning is visible by design).
//
// Observability: an attached TraceSink sits behind an obs::EventCollector
// — one producer-owned lane per shard plus one for the coordinator's own
// events — which each shard's SteppedRun emits into as is. Because the
// shard→lane mapping is fixed, the canonical (lane, sequence) feed at the
// end of the run makes the retained event stream fully deterministic for a
// fixed shard count; a streaming sink receives the shards' batches
// concurrently. Metrics registries and profilers are per-shard and merged
// into the user's after the pool joins. This fan-out is the ensemble
// runner's too: both use obs::ObserverFanOut.
// Market decisions emit kRebalance events and cluster.* metrics.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "cluster/market.hpp"
#include "cluster/partition.hpp"
#include "fault/shard_faults.hpp"
#include "obs/metrics_registry.hpp"
#include "sim/deployment.hpp"
#include "sim/engine.hpp"
#include "sim/ensemble.hpp"
#include "sim/metrics.hpp"
#include "trace/trace.hpp"

namespace pulse::cluster {

struct ClusterConfig {
  /// Worker shards the catalog is hash-partitioned across.
  std::size_t shards = 1;

  /// Threads stepping the shards (0 = min(shards, hardware concurrency)).
  /// Never affects results.
  std::size_t threads = 0;

  /// Per-shard engine configuration. memory_capacity_mb is the TOTAL
  /// cluster keep-alive capacity: the market splits it into per-shard
  /// quotas proportional to shard populations and re-trades it every
  /// epoch. 0 disables capacity and the market.
  sim::EngineConfig engine{};

  MarketConfig market{};

  /// Shard-level fault injection (crashes that lose the warm pool, stall
  /// epochs). All rates default to zero, in which case the epoch loop is
  /// bitwise-identical to one without the fault machinery — no crash minute
  /// is drawn and no detection scan runs. A crashing shard stops simulating
  /// at its crash minute; the crash is detected at the next rebalance
  /// barrier, so market.rebalance_interval is also the detection cadence
  /// even when the market itself is off.
  fault::ShardFaultConfig shard_faults{};
};

/// One shard crash and its recovery, as the cluster engine observed them.
struct ShardFailure {
  std::size_t shard = 0;
  /// Minute the crash fired (hash-derived; the shard simulated up to here).
  trace::Minute crash_minute = 0;
  /// Barrier minute the crash was detected at (end of the crash epoch).
  trace::Minute detected_minute = 0;
  /// Barrier minute the shard was re-admitted; -1 when the trace ended
  /// while the shard was still down.
  trace::Minute recovery_minute = -1;
  /// Containers alive at the crash minute, lost with the warm pool and
  /// charged as crash evictions (cold restarts after recovery).
  std::uint64_t warm_lost = 0;
  /// Arrivals routed to the shard during the outage; all failed.
  std::uint64_t failed_invocations = 0;
  /// Minutes of the crash epoch the shard simulated before it crashed
  /// (crash_minute minus the epoch's first minute).
  trace::Minute replayed_minutes = 0;
  /// Quota reclaimed into the market reserve at detection (0 with the
  /// market off).
  double reclaimed_quota_mb = 0.0;
};

struct ClusterResult {
  /// Per-shard run results, indexed by shard id.
  std::vector<sim::RunResult> shards;

  /// Quota each shard held after the final epoch (empty when the market
  /// never ran).
  std::vector<double> final_quota_mb;

  std::uint64_t rebalance_epochs = 0;
  std::uint64_t transfers = 0;
  double quota_moved_mb = 0.0;

  /// Conserved cluster capacity (0 when the market never ran). Exactly
  /// equal to the initial total at every epoch.
  double total_quota_mb = 0.0;

  /// Failure ledger: one entry per shard crash, in detection order.
  std::vector<ShardFailure> failures;
  std::uint64_t shard_crashes = 0;
  std::uint64_t shard_recoveries = 0;
  /// Epochs a live shard spent stalled (market skipped it).
  std::uint64_t stalled_epochs = 0;

  /// Snapshot of the user's registry after per-shard merges and cluster.*
  /// metrics; empty when no registry was attached.
  obs::MetricsSnapshot metrics;

  /// Catalog-wide totals: every shard's sim::RunTotals summed field-wise,
  /// in shard order.
  [[nodiscard]] sim::RunTotals totals() const noexcept;
  /// Catalog-wide keep-alive spend (a plain sum over shards).
  [[nodiscard]] double total_keepalive_cost_usd() const noexcept;
};

class ClusterEngine {
 public:
  /// deployment/trace must outlive the engine: the per-shard deployments
  /// share the source's model-family pointers, and the shard traces are
  /// projections that read the catalog trace's series in place (no copy),
  /// so the catalog trace must not be mutated or reassigned while the
  /// engine lives. Throws std::invalid_argument on zero shards, a
  /// function-count mismatch, or an invalid market config.
  ClusterEngine(const sim::Deployment& deployment, const trace::Trace& trace,
                ClusterConfig config);
  /// A temporary trace would die before the shards read it.
  ClusterEngine(const sim::Deployment& deployment, const trace::Trace&& trace,
                ClusterConfig config) = delete;

  /// Replays the whole trace across all shards. `factory` is called once
  /// per shard, in shard order, on the calling thread.
  [[nodiscard]] ClusterResult run(const sim::PolicyFactory& factory);

  [[nodiscard]] const ClusterConfig& config() const noexcept { return config_; }
  [[nodiscard]] const Partition& partition() const noexcept { return partition_; }

 private:
  ClusterConfig config_;
  Partition partition_;
  std::vector<trace::Trace> shard_traces_;
  std::vector<sim::Deployment> shard_deployments_;
  trace::Minute duration_ = 0;
};

}  // namespace pulse::cluster
