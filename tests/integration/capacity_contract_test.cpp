// A keep-alive capacity must be finite and >= 0 (0 = unlimited). The one
// check sits where sim::MinuteKernel reads its sim::RunConfig, so every run
// frame rejects NaN, a negative value and infinity with
// std::invalid_argument before the policy sees a minute: the minute engine,
// the ensemble, the platform simulator, the online server and the cluster
// shards, which receive the raw total when it turns the market off. A NaN
// capacity used to evict every kept container every minute, and a negative
// one read as unlimited.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>

#include "cluster/cluster_engine.hpp"
#include "core/pulse_policy.hpp"
#include "models/zoo.hpp"
#include "platform/platform.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "sim/ensemble.hpp"
#include "trace/workload.hpp"

namespace pulse {
namespace {

constexpr double kRejected[] = {std::numeric_limits<double>::quiet_NaN(), -5.0,
                                std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity()};
constexpr double kAccepted[] = {0.0, -0.0, 1500.0};

class CapacityContract : public ::testing::Test {
 protected:
  CapacityContract() {
    trace::WorkloadConfig wc;
    wc.function_count = 16;
    wc.duration = 120;
    wc.seed = 4;
    trace_ = trace::build_azure_like_workload(wc).trace;
    deployment_ = sim::Deployment::round_robin(zoo_, wc.function_count);
  }

  trace::Trace trace_;
  models::ModelZoo zoo_ = models::ModelZoo::builtin();
  sim::Deployment deployment_;
};

TEST_F(CapacityContract, MinuteEngine) {
  for (const double mb : kRejected) {
    sim::EngineConfig config;
    config.memory_capacity_mb = mb;
    core::PulsePolicy policy;
    EXPECT_THROW((void)sim::SimulationEngine(deployment_, trace_, config).run(policy),
                 std::invalid_argument)
        << mb;
  }
  for (const double mb : kAccepted) {
    sim::EngineConfig config;
    config.memory_capacity_mb = mb;
    core::PulsePolicy policy;
    EXPECT_GT(sim::SimulationEngine(deployment_, trace_, config).run(policy).invocations, 0u)
        << mb;
  }
}

TEST_F(CapacityContract, Ensemble) {
  for (const double mb : kRejected) {
    sim::EnsembleConfig config;
    config.runs = 3;
    config.threads = 2;
    config.engine.memory_capacity_mb = mb;
    EXPECT_THROW((void)sim::run_ensemble(
                     zoo_, trace_, [] { return std::make_unique<core::PulsePolicy>(); }, config),
                 std::invalid_argument)
        << mb;
  }
}

TEST_F(CapacityContract, PlatformSimulator) {
  for (const double mb : kRejected) {
    platform::PlatformConfig config;
    config.memory_capacity_mb = mb;
    core::PulsePolicy policy;
    EXPECT_THROW((void)platform::PlatformSimulator(deployment_, trace_, config).run(policy),
                 std::invalid_argument)
        << mb;
  }
  for (const double mb : kAccepted) {
    platform::PlatformConfig config;
    config.memory_capacity_mb = mb;
    core::PulsePolicy policy;
    EXPECT_GT(platform::PlatformSimulator(deployment_, trace_, config).run(policy).invocations,
              0u)
        << mb;
  }
}

TEST_F(CapacityContract, OnlineServer) {
  for (const double mb : kRejected) {
    serve::ServeConfig config;
    config.horizon = trace_.duration();
    config.engine.memory_capacity_mb = mb;
    core::PulsePolicy policy;
    EXPECT_THROW(serve::OnlineServer(deployment_, policy, config), std::invalid_argument) << mb;
  }
}

TEST_F(CapacityContract, ClusterShards) {
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    for (const double mb : kRejected) {
      cluster::ClusterConfig config;
      config.shards = shards;
      config.engine.memory_capacity_mb = mb;
      cluster::ClusterEngine engine(deployment_, trace_, config);
      EXPECT_THROW((void)engine.run([] { return std::make_unique<core::PulsePolicy>(); }),
                   std::invalid_argument)
          << shards << " shards, " << mb << " MB";
    }
  }
}

}  // namespace
}  // namespace pulse
