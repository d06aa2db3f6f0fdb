#pragma once
// Hash partitioning of the function catalog across worker shards.
//
// A cluster-scale catalog (100k–1M functions) cannot live in one
// minute-resolution engine: the per-minute scan is O(F) and the keep-alive
// grid is F x T. The partitioner splits the catalog into N shards; each
// shard's SteppedRun replays a read-only view of the catalog (a
// trace::Trace::project of its members, borrowing the catalog's series,
// and a shard_deployment sharing its model families), and owns only its
// mutable state.
//
// Placement is a pure function of the catalog-global function id — the
// FaultInjector discipline applied to topology: the shard owning f never
// depends on catalog size, on iteration order, or on anything another
// function does. Within a shard, members are kept in ascending global-id
// order, so a shard's local function order is the global order restricted
// to the shard, and a one-shard partition is the identity mapping (the
// property the ClusterEngine == SimulationEngine golden test pins down).

#include <cstddef>
#include <vector>

#include "sim/deployment.hpp"
#include "trace/trace.hpp"

namespace pulse::cluster {

/// Shard owning global function f in a `shard_count`-shard cluster.
[[nodiscard]] std::size_t shard_of(trace::FunctionId f, std::size_t shard_count) noexcept;

/// The catalog split across shards.
struct Partition {
  std::size_t shard_count = 1;

  /// members[s]: global ids owned by shard s, ascending.
  std::vector<std::vector<trace::FunctionId>> members;

  /// Builds the hash partition of a `function_count`-function catalog.
  /// Throws std::invalid_argument when shard_count is zero.
  [[nodiscard]] static Partition make(std::size_t function_count, std::size_t shard_count);

  [[nodiscard]] std::size_t function_count() const noexcept;

  /// Largest / smallest shard population (0 when empty) — the balance
  /// the partition tests check.
  [[nodiscard]] std::size_t max_shard_size() const noexcept;
  [[nodiscard]] std::size_t min_shard_size() const noexcept;
};

/// Projection of the catalog deployment onto one shard's members. The
/// returned deployment shares the source's model-family pointers; the
/// backing ModelZoo must outlive it.
[[nodiscard]] sim::Deployment shard_deployment(const sim::Deployment& deployment,
                                               const std::vector<trace::FunctionId>& members);

}  // namespace pulse::cluster
