// The cluster tier's own idle memory: constructing a ClusterEngine leaves
// per-shard bookkeeping behind (member lists, shard deployments, the shard
// traces' row pointers and names), not a second copy of the catalog trace.
// The shard traces borrow the catalog's series, so the bytes per function
// stay small and do not grow with the trace's horizon.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>

#include "cluster/cluster_engine.hpp"
#include "memory/heap_counter.hpp"
#include "models/zoo.hpp"
#include "sim/deployment.hpp"
#include "trace/trace.hpp"

namespace pulse::cluster {
namespace {

/// Live heap bytes a `shards`-shard ClusterEngine's constructor holds per
/// catalog function.
double engine_bytes_per_function(std::size_t function_count, trace::Minute duration,
                                 std::size_t shards) {
  const trace::Trace trace(function_count, duration);
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, function_count);
  ClusterConfig config;
  config.shards = shards;

  const std::int64_t before = testutil::heap_counts().live_bytes;
  const ClusterEngine engine(deployment, trace, config);
  const std::int64_t after = testutil::heap_counts().live_bytes;
  return static_cast<double>(after - before) / static_cast<double>(function_count);
}

TEST(ClusterMemory, ShardTracesBorrowTheCatalog) {
  // A copied shard trace costs 4 B per function-minute: about 5.8 KB per
  // function over one day and 80.6 KB over fourteen.
  const double one_day = engine_bytes_per_function(2000, trace::kMinutesPerDay, 8);
  const double two_weeks = engine_bytes_per_function(2000, 14 * trace::kMinutesPerDay, 8);
  RecordProperty("bytes_per_function_1d", std::to_string(one_day));
  RecordProperty("bytes_per_function_14d", std::to_string(two_weeks));
  EXPECT_LE(one_day, 512.0);
  EXPECT_LE(two_weeks, 512.0);
  EXPECT_LE(std::abs(two_weeks - one_day), 64.0);
}

}  // namespace
}  // namespace pulse::cluster
