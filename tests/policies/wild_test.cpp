#include "policies/wild.hpp"

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "trace/workload.hpp"

namespace pulse::policies {
namespace {

class WildTest : public ::testing::Test {
 protected:
  WildTest()
      : zoo_(models::ModelZoo::builtin()),
        deployment_(sim::Deployment::round_robin(zoo_, 1)),
        trace_(1, 2000),
        schedule_(deployment_, 2000) {}

  models::ModelZoo zoo_;
  sim::Deployment deployment_;
  trace::Trace trace_;
  sim::KeepAliveSchedule schedule_;
};

TEST_F(WildTest, ColdModelUsesDefaultTenMinuteWindow) {
  WildPolicy p;
  p.initialize(deployment_, trace_, schedule_);
  p.on_invocation(0, 5, schedule_);
  const int high = static_cast<int>(deployment_.family_of(0).highest_index());
  for (trace::Minute m = 6; m <= 15; ++m) EXPECT_EQ(schedule_.variant_at(0, m), high);
  EXPECT_EQ(schedule_.variant_at(0, 16), sim::kNoVariant);
}

TEST_F(WildTest, PeriodicFunctionGetsPrewarmGap) {
  // Gaps of exactly 20 minutes: Wild should release the container during
  // the head of the idle period and pre-warm it shortly before minute 20.
  WildPolicy p;
  p.initialize(deployment_, trace_, schedule_);
  trace::Minute now = 0;
  for (int i = 0; i < 40; ++i) {
    p.on_invocation(0, now, schedule_);
    now += 20;
  }
  const trace::Minute last = now - 20;
  // Immediately after the invocation the container is released...
  EXPECT_EQ(schedule_.variant_at(0, last + 2), sim::kNoVariant);
  // ...but it is alive by the expected arrival offset.
  EXPECT_TRUE(schedule_.is_alive(0, last + 19));
}

TEST_F(WildTest, AlwaysSchedulesHighestVariant) {
  WildPolicy p;
  p.initialize(deployment_, trace_, schedule_);
  trace::Minute now = 0;
  for (int i = 0; i < 30; ++i) {
    p.on_invocation(0, now, schedule_);
    now += 7;
  }
  const int high = static_cast<int>(deployment_.family_of(0).highest_index());
  for (trace::Minute m = 0; m < 2000; ++m) {
    const int v = schedule_.variant_at(0, m);
    if (v != sim::kNoVariant) {
      EXPECT_EQ(v, high) << "minute " << m;
    }
  }
}

TEST_F(WildTest, HorizonIsCapped) {
  WildPolicy::Config config;
  config.max_horizon = 15;
  WildPolicy p(config);
  p.initialize(deployment_, trace_, schedule_);
  // Huge regular gaps would predict a window beyond the cap.
  trace::Minute now = 0;
  for (int i = 0; i < 20; ++i) {
    p.on_invocation(0, now, schedule_);
    now += 200;
  }
  const trace::Minute last = now - 200;
  for (trace::Minute m = last + 16; m < last + 200 && m < 2000; ++m) {
    EXPECT_EQ(schedule_.variant_at(0, m), sim::kNoVariant);
  }
}

TEST_F(WildTest, WildPulseUsesVariantLadder) {
  // Same periodic input: Wild+PULSE must schedule some non-highest variant
  // inside the window (PULSE's greedy selection), unlike plain Wild.
  WildPulsePolicy p;
  p.initialize(deployment_, trace_, schedule_);
  trace::Minute now = 0;
  for (int i = 0; i < 40; ++i) {
    p.on_invocation(0, now, schedule_);
    now += 20;
  }
  const int high = static_cast<int>(deployment_.family_of(0).highest_index());
  bool any_low = false;
  for (trace::Minute m = now - 20; m < now; ++m) {
    const int v = schedule_.variant_at(0, m);
    if (v != sim::kNoVariant && v != high) any_low = true;
  }
  EXPECT_TRUE(any_low);
}

TEST_F(WildTest, WildPulseCheaperThanWild) {
  // The Figure 8 claim, in miniature: integrating PULSE reduces Wild's
  // keep-alive cost.
  trace::WorkloadConfig wconfig;
  wconfig.function_count = 6;
  wconfig.duration = 2 * trace::kMinutesPerDay;
  const auto workload = trace::build_azure_like_workload(wconfig);
  const auto d = sim::Deployment::round_robin(zoo_, 6);
  sim::EngineConfig config;
  config.deterministic_latency = true;
  sim::SimulationEngine engine(d, workload.trace, config);

  WildPolicy wild;
  WildPulsePolicy wild_pulse;
  const double wild_cost = engine.run(wild).total_keepalive_cost_usd;
  const double integrated_cost = engine.run(wild_pulse).total_keepalive_cost_usd;
  EXPECT_LT(integrated_cost, wild_cost);
}

TEST_F(WildTest, PredictorAccessibleByFunction) {
  WildPolicy p;
  p.initialize(deployment_, trace_, schedule_);
  p.on_invocation(0, 0, schedule_);
  p.on_invocation(0, 6, schedule_);
  EXPECT_EQ(p.predictor(0).observed_idle_times(), 1u);
}

}  // namespace
}  // namespace pulse::policies
