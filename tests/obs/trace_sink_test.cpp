// TraceSink behaviour: ring-buffer ordering / capacity / drop accounting,
// and the JSONL file sink's schema and line accounting.

#include "obs/trace_sink.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "policies/factory.hpp"
#include "sim/engine.hpp"
#include "support/temp_dir.hpp"
#include "trace/workload.hpp"

namespace pulse::obs {
namespace {

TraceEvent event_at(trace::Minute minute, EventType type = EventType::kColdStart) {
  TraceEvent e;
  e.type = type;
  e.minute = minute;
  e.function = 3;
  e.variant = 1;
  e.value = 2.0;
  e.detail = "test";
  return e;
}

TEST(EventType, StableNames) {
  EXPECT_STREQ(to_string(EventType::kColdStart), "cold_start");
  EXPECT_STREQ(to_string(EventType::kWarmStart), "warm_start");
  EXPECT_STREQ(to_string(EventType::kEviction), "eviction");
  EXPECT_STREQ(to_string(EventType::kCrashEviction), "crash_eviction");
  EXPECT_STREQ(to_string(EventType::kDowngrade), "downgrade");
  EXPECT_STREQ(to_string(EventType::kFault), "fault");
  EXPECT_STREQ(to_string(EventType::kCapacityPressure), "capacity_pressure");
  EXPECT_STREQ(to_string(EventType::kPolicyDecision), "policy_decision");
  EXPECT_STREQ(to_string(EventType::kPrewarm), "prewarm");
  EXPECT_STREQ(to_string(EventType::kRebalance), "rebalance");
  EXPECT_STREQ(to_string(EventType::kShardCrash), "shard_crash");
  EXPECT_STREQ(to_string(EventType::kShardRecover), "shard_recover");
}

TEST(RingBufferSink, RecordsInOrderBelowCapacity) {
  RingBufferSink sink(8);
  for (trace::Minute t = 0; t < 5; ++t) sink.record(event_at(t));
  const std::vector<TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 5u);
  for (trace::Minute t = 0; t < 5; ++t) EXPECT_EQ(events[static_cast<std::size_t>(t)].minute, t);
  EXPECT_EQ(sink.recorded(), 5u);
  EXPECT_EQ(sink.dropped(), 0u);
}

TEST(RingBufferSink, WrapsKeepingNewestOldestFirst) {
  RingBufferSink sink(4);
  for (trace::Minute t = 0; t < 10; ++t) sink.record(event_at(t));
  const std::vector<TraceEvent> events = sink.events();
  ASSERT_EQ(events.size(), 4u);
  // Newest 4 events (minutes 6..9), oldest first.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(events[i].minute, static_cast<trace::Minute>(6 + i));
  }
  EXPECT_EQ(sink.recorded(), 10u);
  EXPECT_EQ(sink.dropped(), 6u);
  EXPECT_EQ(sink.capacity(), 4u);
}

TEST(RingBufferSink, CountsByTypeSurviveOverwrite) {
  RingBufferSink sink(2);
  sink.record(event_at(0, EventType::kColdStart));
  sink.record(event_at(1, EventType::kColdStart));
  sink.record(event_at(2, EventType::kEviction));  // overwrites a cold start
  const std::vector<std::uint64_t> counts = sink.counts_by_type();
  EXPECT_EQ(counts.at(static_cast<std::size_t>(EventType::kColdStart)), 2u);
  EXPECT_EQ(counts.at(static_cast<std::size_t>(EventType::kEviction)), 1u);
}

TEST(RingBufferSink, ClearResetsEverything) {
  RingBufferSink sink(4);
  for (trace::Minute t = 0; t < 6; ++t) sink.record(event_at(t));
  sink.clear();
  EXPECT_TRUE(sink.events().empty());
  EXPECT_EQ(sink.recorded(), 0u);
  EXPECT_EQ(sink.dropped(), 0u);
  // And it keeps working after the reset.
  sink.record(event_at(42));
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].minute, 42);
}

TEST(RingBufferSink, EventPayloadRoundTrips) {
  RingBufferSink sink(2);
  TraceEvent e;
  e.type = EventType::kDowngrade;
  e.minute = 17;
  e.function = 5;
  e.variant = 2;
  e.value = 1.0;
  e.detail = "flatten_peak";
  sink.record(e);
  const TraceEvent out = sink.events().at(0);
  EXPECT_EQ(out.type, EventType::kDowngrade);
  EXPECT_EQ(out.minute, 17);
  EXPECT_EQ(out.function, 5u);
  EXPECT_EQ(out.variant, 2);
  EXPECT_DOUBLE_EQ(out.value, 1.0);
  EXPECT_STREQ(out.detail, "flatten_peak");
}

// PULSE emits one kPolicyDecision per variant-selection pass: function =
// the function decided for, variant = the choice for the next minute,
// value = the keep-alive window covered, detail = "variant_selection".
// Exactly one pass runs per minute-with-invocations of each function.
TEST(PolicyDecisionEvents, PulseEmitsOnePerVariantSelection) {
  trace::WorkloadConfig wc;
  wc.function_count = 8;
  wc.duration = 360;
  wc.seed = 11;
  const trace::Workload workload = trace::build_azure_like_workload(wc);
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, wc.function_count);

  RingBufferSink sink(1 << 16);
  sim::EngineConfig config;
  config.seed = 29;
  config.observer.sink = &sink;
  sim::SimulationEngine engine(deployment, workload.trace, config);
  auto policy = policies::make_policy("pulse");
  (void)engine.run(*policy);

  std::uint64_t invocation_minutes = 0;
  for (trace::FunctionId f = 0; f < wc.function_count; ++f) {
    invocation_minutes += workload.trace.invocation_minutes(f).size();
  }
  ASSERT_GT(invocation_minutes, 0u);

  std::uint64_t decisions = 0;
  for (const TraceEvent& e : sink.events()) {
    if (e.type != EventType::kPolicyDecision) continue;
    ++decisions;
    ASSERT_NE(e.function, TraceEvent::kNoFunction);
    EXPECT_LT(e.function, wc.function_count);
    EXPECT_GE(e.variant, 0);
    EXPECT_LT(e.variant,
              static_cast<std::int32_t>(deployment.family_of(e.function).variant_count()));
    EXPECT_GE(e.value, 1.0);  // the window always covers at least one minute
    EXPECT_STREQ(e.detail, "variant_selection");
  }
  EXPECT_EQ(decisions, invocation_minutes);
}

class JsonlFileSinkTest : public ::testing::Test {
 protected:
  std::string temp_path() const { return (dir_.path() / "events.jsonl").string(); }

  static std::vector<std::string> read_lines(const std::string& path) {
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
    return lines;
  }

  testutil::TempDir dir_;
};

TEST_F(JsonlFileSinkTest, WritesOneJsonObjectPerLine) {
  const std::string path = temp_path();
  {
    JsonlFileSink sink(path);
    sink.record(event_at(7, EventType::kColdStart));
    TraceEvent aggregate;
    aggregate.type = EventType::kCapacityPressure;
    aggregate.minute = 8;
    aggregate.value = 512.5;
    sink.record(aggregate);
    EXPECT_EQ(sink.lines_written(), 2u);
    sink.flush();
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"type\":\"cold_start\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"minute\":7"), std::string::npos);
  EXPECT_NE(lines[0].find("\"function\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"variant\":1"), std::string::npos);
  // Aggregate event: function / variant omitted per the documented schema.
  EXPECT_NE(lines[1].find("\"type\":\"capacity_pressure\""), std::string::npos);
  EXPECT_EQ(lines[1].find("\"function\""), std::string::npos);
  EXPECT_EQ(lines[1].find("\"variant\""), std::string::npos);
  // Every line is a braces-delimited object.
  for (const std::string& line : lines) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
  }
}

// The kRebalance schema the cluster capacity market emits: function =
// recipient shard, variant = donor shard, value = MB moved, minute = the
// epoch boundary. Pinned here so JSONL consumers can rely on it.
TEST_F(JsonlFileSinkTest, RebalanceEventSchema) {
  const std::string path = temp_path();
  {
    JsonlFileSink sink(path);
    TraceEvent e;
    e.type = EventType::kRebalance;
    e.minute = 15;
    e.function = 2;  // recipient shard
    e.variant = 5;   // donor shard
    e.value = 128.0;
    e.detail = "quota_transfer";
    sink.record(e);
    sink.flush();
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\":\"rebalance\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"minute\":15"), std::string::npos);
  EXPECT_NE(lines[0].find("\"function\":2"), std::string::npos);
  EXPECT_NE(lines[0].find("\"variant\":5"), std::string::npos);
  EXPECT_NE(lines[0].find("\"detail\":\"quota_transfer\""), std::string::npos);
}

// Shard-fault schema: kShardCrash carries function = crashed shard,
// minute = the crash minute (not the detection barrier), value = warm
// containers lost; kShardRecover carries function = shard, minute = the
// recovery barrier, value = outage minutes. Variant is -1 (omitted) for
// both. Pinned so JSONL consumers can rely on it.
TEST_F(JsonlFileSinkTest, ShardCrashEventSchema) {
  const std::string path = temp_path();
  {
    JsonlFileSink sink(path);
    TraceEvent e;
    e.type = EventType::kShardCrash;
    e.minute = 47;    // crash minute
    e.function = 3;   // crashed shard
    e.variant = -1;
    e.value = 96.0;   // warm containers lost
    e.detail = "shard_crash";
    sink.record(e);
    sink.flush();
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\":\"shard_crash\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"minute\":47"), std::string::npos);
  EXPECT_NE(lines[0].find("\"function\":3"), std::string::npos);
  EXPECT_EQ(lines[0].find("\"variant\""), std::string::npos) << "variant -1 omitted";
  EXPECT_NE(lines[0].find("\"value\":96"), std::string::npos);
  EXPECT_NE(lines[0].find("\"detail\":\"shard_crash\""), std::string::npos);
}

TEST_F(JsonlFileSinkTest, ShardRecoverEventSchema) {
  const std::string path = temp_path();
  {
    JsonlFileSink sink(path);
    TraceEvent e;
    e.type = EventType::kShardRecover;
    e.minute = 90;    // recovery barrier
    e.function = 3;   // recovered shard
    e.variant = -1;
    e.value = 43.0;   // outage minutes (recovery - crash)
    e.detail = "shard_recover";
    sink.record(e);
    sink.flush();
  }
  const std::vector<std::string> lines = read_lines(path);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"type\":\"shard_recover\""), std::string::npos);
  EXPECT_NE(lines[0].find("\"minute\":90"), std::string::npos);
  EXPECT_NE(lines[0].find("\"function\":3"), std::string::npos);
  EXPECT_NE(lines[0].find("\"value\":43"), std::string::npos);
  EXPECT_NE(lines[0].find("\"detail\":\"shard_recover\""), std::string::npos);
}

TEST_F(JsonlFileSinkTest, UnopenablePathThrows) {
  EXPECT_THROW(JsonlFileSink("/nonexistent-dir-xyz/file.jsonl"), std::runtime_error);
}

// /dev/full opens fine and fails every write with ENOSPC. Producer threads
// must never see an exception, so the failure is sticky until flush().
TEST_F(JsonlFileSinkTest, WriteFailureIsReported) {
  std::unique_ptr<JsonlFileSink> sink;
  try {
    sink = std::make_unique<JsonlFileSink>("/dev/full");
  } catch (const std::runtime_error&) {
    GTEST_SKIP() << "/dev/full cannot be opened";
  }
  // Far more than one stdio buffer, so the writes themselves fail.
  const std::vector<TraceEvent> batch(1000, event_at(1));
  sink->record_batch(batch.data(), batch.size());
  sink->record(event_at(2));
  EXPECT_LT(sink->lines_written(), batch.size());
  try {
    sink->flush();
    FAIL() << "flush() must report the failed writes";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos) << e.what();
  }
  EXPECT_THROW(sink->flush(), std::runtime_error);  // still failed
}

}  // namespace
}  // namespace pulse::obs
