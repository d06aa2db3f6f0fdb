#include "cluster/partition.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace pulse::cluster {

namespace {
// Placement stream tag. Placement is topology, not experiment randomness:
// it deliberately does not involve EngineConfig::seed, so the same catalog
// shards identically across every run and every seed sweep.
constexpr std::uint64_t kPlacementStream = 0x5a4d'9a7e;
}  // namespace

std::size_t shard_of(trace::FunctionId f, std::size_t shard_count) noexcept {
  if (shard_count <= 1) return 0;
  return static_cast<std::size_t>(util::hash_u64(0, kPlacementStream, f, 0) % shard_count);
}

Partition Partition::make(std::size_t function_count, std::size_t shard_count) {
  if (shard_count == 0) throw std::invalid_argument("Partition::make: shard_count must be > 0");
  Partition p;
  p.shard_count = shard_count;
  p.members.resize(shard_count);
  for (trace::FunctionId f = 0; f < function_count; ++f) {
    p.members[shard_of(f, shard_count)].push_back(f);
  }
  // Ascending by construction (f iterates in order); nothing to sort.
  return p;
}

std::size_t Partition::function_count() const noexcept {
  std::size_t total = 0;
  for (const auto& m : members) total += m.size();
  return total;
}

std::size_t Partition::max_shard_size() const noexcept {
  std::size_t best = 0;
  for (const auto& m : members) best = std::max(best, m.size());
  return best;
}

std::size_t Partition::min_shard_size() const noexcept {
  if (members.empty()) return 0;
  std::size_t best = members.front().size();
  for (const auto& m : members) best = std::min(best, m.size());
  return best;
}

sim::Deployment shard_deployment(const sim::Deployment& deployment,
                                 const std::vector<trace::FunctionId>& members) {
  std::vector<const models::ModelFamily*> families;
  families.reserve(members.size());
  for (const trace::FunctionId f : members) families.push_back(&deployment.family_of(f));
  return sim::Deployment(std::move(families));
}

}  // namespace pulse::cluster
