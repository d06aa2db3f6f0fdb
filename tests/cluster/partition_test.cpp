// Hash partitioning: every function lands on exactly one shard, placement
// is stable and reasonably balanced, one shard is the identity, and the
// per-shard trace/deployment projections preserve per-function data.

#include "cluster/partition.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "models/zoo.hpp"
#include "trace/workload.hpp"

namespace pulse::cluster {
namespace {

TEST(Partition, CoversEveryFunctionExactlyOnce) {
  const std::size_t functions = 1000;
  const Partition p = Partition::make(functions, 7);
  ASSERT_EQ(p.members.size(), 7u);
  std::vector<int> seen(functions, 0);
  for (const auto& shard : p.members) {
    for (const trace::FunctionId f : shard) {
      ASSERT_LT(f, functions);
      ++seen[f];
    }
  }
  for (std::size_t f = 0; f < functions; ++f) EXPECT_EQ(seen[f], 1) << "function " << f;
  EXPECT_EQ(p.function_count(), functions);
}

TEST(Partition, MembersAscendingAndMatchShardOf) {
  const Partition p = Partition::make(500, 5);
  for (std::size_t s = 0; s < p.members.size(); ++s) {
    for (std::size_t i = 0; i < p.members[s].size(); ++i) {
      if (i > 0) {
        EXPECT_LT(p.members[s][i - 1], p.members[s][i]);
      }
      EXPECT_EQ(shard_of(p.members[s][i], 5), s);
    }
  }
}

TEST(Partition, SingleShardIsIdentity) {
  const Partition p = Partition::make(64, 1);
  ASSERT_EQ(p.members.size(), 1u);
  ASSERT_EQ(p.members[0].size(), 64u);
  for (std::size_t f = 0; f < 64; ++f) EXPECT_EQ(p.members[0][f], f);
}

TEST(Partition, PlacementIndependentOfCatalogSize) {
  // shard_of is a pure function of (f, shards): growing the catalog must
  // never move existing functions.
  const Partition small = Partition::make(100, 4);
  const Partition big = Partition::make(10000, 4);
  for (std::size_t s = 0; s < 4; ++s) {
    for (const trace::FunctionId f : small.members[s]) {
      EXPECT_EQ(shard_of(f, 4), s);
    }
    // Every small-catalog member appears in the same shard of the big one.
    std::size_t found = 0;
    for (const trace::FunctionId f : big.members[s]) {
      if (f < 100) ++found;
    }
    EXPECT_EQ(found, small.members[s].size());
  }
}

TEST(Partition, HashBalancesLargeCatalogs) {
  const Partition p = Partition::make(100000, 8);
  const double mean = 100000.0 / 8.0;
  // Uniform hashing: shard sizes within a few percent of the mean.
  EXPECT_LT(static_cast<double>(p.max_shard_size()), mean * 1.05);
  EXPECT_GT(static_cast<double>(p.min_shard_size()), mean * 0.95);
}

TEST(Partition, ZeroShardsThrows) {
  EXPECT_THROW((void)Partition::make(10, 0), std::invalid_argument);
}

TEST(Partition, ShardTraceProjectsSeriesAndNames) {
  trace::WorkloadConfig wc;
  wc.function_count = 24;
  wc.duration = 120;
  wc.seed = 5;
  const trace::Workload workload = trace::build_azure_like_workload(wc);

  const Partition p = Partition::make(wc.function_count, 3);
  for (std::size_t s = 0; s < 3; ++s) {
    const trace::Trace sub = workload.trace.project(p.members[s]);
    ASSERT_EQ(sub.function_count(), p.members[s].size());
    EXPECT_EQ(sub.duration(), workload.trace.duration());
    for (std::size_t i = 0; i < p.members[s].size(); ++i) {
      const trace::FunctionId f = p.members[s][i];
      EXPECT_EQ(sub.function_name(i), workload.trace.function_name(f));
      // The shard reads the catalog's series in place: no copy.
      EXPECT_EQ(sub.series(i).data(), workload.trace.series(f).data());
      for (trace::Minute t = 0; t < sub.duration(); ++t) {
        ASSERT_EQ(sub.count(i, t), workload.trace.count(f, t))
            << "shard " << s << " local " << i << " minute " << t;
      }
    }
  }
}

TEST(Partition, ShardDeploymentSharesFamilies) {
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, 24);
  const Partition p = Partition::make(24, 3);
  for (std::size_t s = 0; s < 3; ++s) {
    const sim::Deployment sub = shard_deployment(deployment, p.members[s]);
    ASSERT_EQ(sub.function_count(), p.members[s].size());
    for (std::size_t i = 0; i < p.members[s].size(); ++i) {
      EXPECT_EQ(&sub.family_of(i), &deployment.family_of(p.members[s][i]));
    }
  }
}

}  // namespace
}  // namespace pulse::cluster
