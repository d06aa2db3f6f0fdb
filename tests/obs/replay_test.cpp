// JSONL replayer: schema round-trip and offline reconstruction.
//
// The replayer's promise is that a JsonlFileSink stream (with
// EngineConfig::emit_minute_samples on) is a complete record of the run's
// cost and cold-start curves: replaying the file reproduces
// RunResult::total_keepalive_cost_usd bit-for-bit (%.17g round-trips
// doubles, and the replayer sums the same per-minute terms in the same
// order) without touching the trace or the simulator.

#include "exp/replay.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "obs/collector.hpp"
#include "obs/trace_sink.hpp"
#include "policies/factory.hpp"
#include "sim/engine.hpp"
#include "trace/workload.hpp"

namespace pulse::exp {
namespace {

TEST(ReplayParser, RoundTripsTheWriterSchema) {
  obs::TraceEvent original;
  original.type = obs::EventType::kMinuteSample;
  original.minute = 1234;
  original.function = 42;
  original.variant = 7;
  original.value = 8123.4567891234567;  // needs all 17 significant digits
  original.detail = "shard_outage";

  char line[obs::kJsonlMaxLine];
  const std::size_t n = obs::format_event_jsonl(original, line, sizeof line);
  ASSERT_GT(n, 0u);

  obs::TraceEvent parsed;
  std::string detail;
  ASSERT_TRUE(parse_event_jsonl(std::string_view(line, n), parsed, &detail));
  EXPECT_EQ(parsed.type, original.type);
  EXPECT_EQ(parsed.minute, original.minute);
  EXPECT_EQ(parsed.function, original.function);
  EXPECT_EQ(parsed.variant, original.variant);
  EXPECT_EQ(parsed.value, original.value);  // %.17g: bit-exact round trip
  EXPECT_EQ(detail, "shard_outage");
}

TEST(ReplayParser, HandlesOmittedOptionalFields) {
  // Aggregate events omit "function"; variant -1 is omitted too.
  obs::TraceEvent original;
  original.type = obs::EventType::kCapacityPressure;
  original.minute = 9;
  original.value = 512.25;

  char line[obs::kJsonlMaxLine];
  const std::size_t n = obs::format_event_jsonl(original, line, sizeof line);
  obs::TraceEvent parsed;
  ASSERT_TRUE(parse_event_jsonl(std::string_view(line, n), parsed));
  EXPECT_EQ(parsed.function, obs::TraceEvent::kNoFunction);
  EXPECT_EQ(parsed.variant, -1);
  EXPECT_EQ(parsed.value, 512.25);
}

TEST(ReplayParser, RejectsMalformedLines) {
  obs::TraceEvent out;
  EXPECT_FALSE(parse_event_jsonl("", out));
  EXPECT_FALSE(parse_event_jsonl("not json at all", out));
  EXPECT_FALSE(parse_event_jsonl(R"({"type":"no_such_event","minute":1,"value":0})", out));
  EXPECT_FALSE(parse_event_jsonl(R"({"type":"cold_start"})", out));  // no minute/value
  // Coordinates out of range for their types, or not integers.
  for (const char* line : {
           R"({"type":"cold_start","minute":-100000,"function":1,"value":1,"detail":""})",
           R"({"type":"cold_start","minute":1e300,"function":1,"value":1,"detail":""})",
           R"({"type":"cold_start","minute":527040,"value":1,"detail":""})",
           R"({"type":"cold_start","minute":2.5,"value":1,"detail":""})",
           R"({"type":"cold_start","minute":nan,"value":1,"detail":""})",
           R"({"type":"cold_start","minute":1,"function":-1e30,"value":1,"detail":""})",
           R"({"type":"cold_start","minute":1,"function":-1,"value":1,"detail":""})",
           R"({"type":"cold_start","minute":1,"function":1.5,"value":1,"detail":""})",
           R"({"type":"cold_start","minute":1,"function":x,"value":1,"detail":""})",
           R"({"type":"cold_start","minute":1,"variant":2147483648,"value":1,"detail":""})",
           R"({"type":"cold_start","minute":1,"variant":-1e300,"value":1,"detail":""})",
       }) {
    EXPECT_FALSE(parse_event_jsonl(line, out)) << line;
  }
  // The edges of the ranges still parse.
  ASSERT_TRUE(parse_event_jsonl(
      R"({"type":"cold_start","minute":527039,"function":0,"variant":-1,"value":1,"detail":""})",
      out));
  EXPECT_EQ(out.minute, 527039);
  EXPECT_EQ(out.function, 0u);
  EXPECT_EQ(out.variant, -1);
}

struct ReplayFixture {
  sim::RunResult result;
  ReplayResult replay;
  trace::Minute duration = 0;
  std::string jsonl;  // the file's bytes
};

/// One observed PULSE run streamed to JSONL, then replayed from the file.
/// `through_collector` hands the engine a caller-owned EventLane, as the
/// ensemble/cluster do, instead of the sink itself (which the engine puts
/// behind a one-lane collector of its own).
ReplayFixture run_and_replay(const std::string& path, bool through_collector) {
  trace::WorkloadConfig wc;
  wc.function_count = 8;
  wc.duration = 360;
  wc.seed = 17;
  const trace::Workload workload = trace::build_azure_like_workload(wc);
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, wc.function_count);

  ReplayFixture fx;
  fx.duration = workload.trace.duration();
  {
    obs::JsonlFileSink sink(path);
    sim::EngineConfig config;
    config.seed = 23;
    config.emit_minute_samples = true;
    config.memory_capacity_mb = deployment.peak_highest_memory_mb() * 0.5;

    auto policy = policies::make_policy("pulse");
    if (through_collector) {
      obs::EventCollector collector(sink, 1);
      config.observer.sink = &collector.lane(0);
      sim::SimulationEngine engine(deployment, workload.trace, config);
      fx.result = engine.run(*policy);
      collector.finish();
    } else {
      config.observer.sink = &sink;
      sim::SimulationEngine engine(deployment, workload.trace, config);
      fx.result = engine.run(*policy);
    }
    sink.flush();
  }
  fx.replay = replay_events_file(path);
  {
    std::ifstream in(path, std::ios::binary);
    fx.jsonl.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  std::remove(path.c_str());
  return fx;
}

TEST(Replay, ReconstructsCostAndColdStartCurves) {
  const ReplayFixture fx =
      run_and_replay(testing::TempDir() + "replay_direct.jsonl", /*through_collector=*/false);

  EXPECT_EQ(fx.replay.skipped_lines, 0u);
  EXPECT_EQ(fx.replay.duration, fx.duration);
  // One minute sample per simulated minute anchors the full memory curve...
  EXPECT_EQ(fx.replay.minute_samples, static_cast<std::uint64_t>(fx.duration));
  // ...so costing it through the run's cost model reproduces the total
  // exactly (same terms, same order, doubles round-tripped bit-exactly).
  EXPECT_EQ(fx.replay.total_keepalive_cost_usd(), fx.result.total_keepalive_cost_usd);
  // One kColdStart event per cold minute == RunResult::cold_starts.
  EXPECT_EQ(fx.replay.total_cold_starts(), fx.result.cold_starts);
  EXPECT_GT(fx.replay.peak_memory_mb(), 0.0);
}

TEST(Replay, CollectorTransportPreservesTheReconstruction) {
  const ReplayFixture fx =
      run_and_replay(testing::TempDir() + "replay_lane.jsonl", /*through_collector=*/true);

  EXPECT_EQ(fx.replay.skipped_lines, 0u);
  EXPECT_EQ(fx.replay.minute_samples, static_cast<std::uint64_t>(fx.duration));
  EXPECT_EQ(fx.replay.total_keepalive_cost_usd(), fx.result.total_keepalive_cost_usd);
  EXPECT_EQ(fx.replay.total_cold_starts(), fx.result.cold_starts);

  // One lane keeps the emission order: the file is the direct-attach file,
  // byte for byte.
  const ReplayFixture direct =
      run_and_replay(testing::TempDir() + "replay_lane_direct.jsonl", /*through_collector=*/false);
  ASSERT_FALSE(direct.jsonl.empty());
  EXPECT_TRUE(fx.jsonl == direct.jsonl) << "lane file differs from the direct-attach file";
}

TEST(Replay, SkipsGarbageLinesAndKeepsGoing) {
  const std::string path = testing::TempDir() + "replay_garbage.jsonl";
  {
    std::ofstream out(path);
    out << R"({"type":"cold_start","minute":0,"function":1,"variant":0,"value":2,"detail":""})"
        << "\n";
    out << "garbage line\n";
    out << R"({"type":"unknown_kind","minute":1,"value":0,"detail":""})" << "\n";
    out << R"({"type":"cold_start","minute":-100000,"function":1,"value":2,"detail":""})"
        << "\n";
    out << R"({"type":"minute_sample","minute":2,"variant":3,"value":128.5,"detail":""})"
        << "\n";
  }
  const ReplayResult replay = replay_events_file(path);
  std::remove(path.c_str());

  EXPECT_EQ(replay.events, 2u);
  EXPECT_EQ(replay.skipped_lines, 3u);
  EXPECT_EQ(replay.duration, 3);
  EXPECT_EQ(replay.total_cold_starts(), 1u);
  EXPECT_DOUBLE_EQ(replay.memory_mb[2], 128.5);
  EXPECT_EQ(replay.alive_containers[2], 3u);
}

TEST(Replay, MissingFileThrows) {
  EXPECT_THROW((void)replay_events_file("/nonexistent/replay.jsonl"), std::runtime_error);
}

}  // namespace
}  // namespace pulse::exp
