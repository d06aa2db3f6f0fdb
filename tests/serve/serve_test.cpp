// Online serving mode: served runs must reproduce batch runs bit-for-bit,
// the line protocol must round-trip, and malformed / late / out-of-range
// events must be handled per ServeConfig::strict.

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "models/zoo.hpp"
#include "policies/factory.hpp"
#include "serve/line_protocol.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "sim/ensemble.hpp"
#include "trace/workload.hpp"

namespace pulse::serve {
namespace {

trace::Trace small_trace(std::uint64_t seed = 42, trace::Minute duration = 600) {
  trace::WorkloadConfig config;
  config.function_count = 8;
  config.duration = duration;
  config.seed = seed;
  return trace::build_azure_like_workload(config).trace;
}

sim::Deployment deployment_for(const trace::Trace& trace) {
  static const models::ModelZoo zoo = models::ModelZoo::builtin();
  return sim::Deployment::round_robin(zoo, trace.function_count());
}

sim::RunResult batch_run(const sim::Deployment& deployment, const trace::Trace& trace,
                         const std::string& policy_name) {
  sim::SimulationEngine engine(deployment, trace, {});
  const auto policy = policies::make_policy(policy_name);
  return engine.run(*policy);
}

sim::RunResult served_run(const sim::Deployment& deployment, InvocationSource& source,
                          const std::string& policy_name, trace::Minute horizon) {
  const auto policy = policies::make_policy(policy_name);
  ServeConfig config;
  config.horizon = horizon;
  OnlineServer server(deployment, *policy, config);
  server.drain(source);
  return server.finish();
}

void expect_bitwise_equal(const sim::RunResult& served, const sim::RunResult& batch,
                          const std::string& label) {
  EXPECT_EQ(served.invocations, batch.invocations) << label;
  EXPECT_EQ(served.warm_starts, batch.warm_starts) << label;
  EXPECT_EQ(served.cold_starts, batch.cold_starts) << label;
  EXPECT_EQ(served.downgrades, batch.downgrades) << label;
  EXPECT_EQ(served.total_keepalive_cost_usd, batch.total_keepalive_cost_usd) << label;
  EXPECT_EQ(served.total_service_time_s, batch.total_service_time_s) << label;
  EXPECT_EQ(served.average_accuracy_pct(), batch.average_accuracy_pct()) << label;
}

TEST(Serve, ReplaySourceEmitsTraceInOrder) {
  trace::Trace trace(2, 3);
  trace.add_invocations(0, 0, 2);
  trace.add_invocations(1, 1, 1);
  ReplaySource source(trace);
  StreamEvent e;
  std::vector<StreamEvent> events;
  while (source.next(e)) events.push_back(e);
  // minute 0: inv f0, tick; minute 1: inv f1, tick; minute 2: tick; end.
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].kind, EventKind::kInvocation);
  EXPECT_EQ(events[0].function, 0u);
  EXPECT_EQ(events[0].count, 2u);
  EXPECT_EQ(events[1].kind, EventKind::kTick);
  EXPECT_EQ(events[1].minute, 0);
  EXPECT_EQ(events[2].kind, EventKind::kInvocation);
  EXPECT_EQ(events[2].function, 1u);
  EXPECT_EQ(events[3].kind, EventKind::kTick);
  EXPECT_EQ(events[4].kind, EventKind::kTick);
  EXPECT_EQ(events[4].minute, 2);
  EXPECT_EQ(events[5].kind, EventKind::kEnd);
  EXPECT_FALSE(source.next(e));
}

TEST(Serve, ServedEqualsBatchAcrossPolicies) {
  const trace::Trace trace = small_trace();
  const sim::Deployment deployment = deployment_for(trace);
  for (const char* name : {"pulse", "wild", "icebreaker", "openwhisk", "wild+pulse",
                           "icebreaker+pulse"}) {
    const sim::RunResult batch = batch_run(deployment, trace, name);
    ReplaySource source(trace);
    const sim::RunResult served = served_run(deployment, source, name, trace.duration());
    expect_bitwise_equal(served, batch, name);
  }
}

TEST(Serve, OversizedHorizonStillMatchesBatch) {
  // The horizon only sizes the buffer; schedule entries past the last
  // delivered minute are never simulated, so the result is unchanged.
  const trace::Trace trace = small_trace(7);
  const sim::Deployment deployment = deployment_for(trace);
  const sim::RunResult batch = batch_run(deployment, trace, "pulse");
  ReplaySource source(trace);
  const sim::RunResult served =
      served_run(deployment, source, "pulse", trace.duration() + 2 * trace::kMinutesPerDay);
  expect_bitwise_equal(served, batch, "oversized horizon");
}

TEST(Serve, LineProtocolRoundTripsBitwise) {
  const trace::Trace trace = small_trace(99);
  const sim::Deployment deployment = deployment_for(trace);
  const sim::RunResult batch = batch_run(deployment, trace, "pulse");

  std::ostringstream encoded;
  write_line_protocol(trace, encoded);
  std::istringstream decoded(encoded.str());
  LineProtocolSource source(decoded, {.strict = true});
  const sim::RunResult served = served_run(deployment, source, "pulse", trace.duration());
  expect_bitwise_equal(served, batch, "line protocol");
  EXPECT_EQ(source.malformed_lines(), 0u);
}

TEST(Serve, MalformedLinesAreCountedAndSkipped) {
  const std::string stream =
      "# comment\n"
      "\n"
      "inv 0 1 2\n"
      "bogus line\n"
      "inv 0 nonsense\n"
      "inv 0 1 0\n"      // zero count: malformed
      "inv 0 1 3 junk\n"  // trailing junk: malformed
      "tick 0\n"
      "end\n";
  std::istringstream in(stream);
  LineProtocolSource source(in);
  StreamEvent e;
  std::uint64_t invocations = 0;
  std::uint64_t ticks = 0;
  while (source.next(e)) {
    if (e.kind == EventKind::kInvocation) ++invocations;
    if (e.kind == EventKind::kTick) ++ticks;
  }
  EXPECT_EQ(invocations, 1u);
  EXPECT_EQ(ticks, 1u);
  EXPECT_EQ(source.malformed_lines(), 4u);
}

TEST(Serve, StrictProtocolThrowsOnMalformedLine) {
  std::istringstream in("inv zero 1\n");
  LineProtocolSource source(in, {.strict = true});
  StreamEvent e;
  EXPECT_THROW(source.next(e), std::runtime_error);
}

// Cells past a field's range, or spelled with a sign, are malformed: they
// must not wrap or saturate into a valid event.
TEST(Serve, OutOfRangeAndSignedCellsAreMalformed) {
  const std::vector<std::string> bad = {
      "inv 0 0 4294967296",            // count 2^32 would wrap to 0
      "inv 0 0 4294967297",            // ... and this to 1
      "inv 0 0 18446744073709551616",  // past uint64
      "inv 0 0 99999999999999999999",
      "inv 9223372036854775808 0",  // minute past int64
      "inv 99999999999999999999 0",
      "inv 0 18446744073709551616",  // function past uint64
      "tick 9223372036854775808",
      "tick 18446744073709551615",
      "inv 0 0 +2",
      "inv -0 0",
      "inv 0 +1",
      "tick -0",
      "tick +3",
      "inv 0 0\v2",
  };
  for (const std::string& line : bad) {
    SCOPED_TRACE(line);
    std::istringstream in(line + "\ntick 5\n");
    LineProtocolSource source(in);
    StreamEvent e;
    ASSERT_TRUE(source.next(e));
    EXPECT_EQ(e.kind, EventKind::kTick);
    EXPECT_EQ(e.minute, 5);
    EXPECT_EQ(source.malformed_lines(), 1u);

    std::istringstream strict_in(line + "\n");
    LineProtocolSource strict(strict_in, {.strict = true});
    EXPECT_THROW(strict.next(e), std::runtime_error);
  }

  // The largest value of each field is still a valid event.
  std::istringstream in(
      "inv 9223372036854775807 18446744073709551615 4294967295\n"
      "inv 0 0 0004294967295\n"
      "end\r\n");
  LineProtocolSource source(in, {.strict = true});
  StreamEvent e;
  ASSERT_TRUE(source.next(e));
  EXPECT_EQ(e.minute, std::numeric_limits<trace::Minute>::max());
  EXPECT_EQ(e.function, std::numeric_limits<trace::FunctionId>::max());
  EXPECT_EQ(e.count, 4294967295u);
  ASSERT_TRUE(source.next(e));
  EXPECT_EQ(e.count, 4294967295u);
  ASSERT_TRUE(source.next(e));
  EXPECT_EQ(e.kind, EventKind::kEnd);
  EXPECT_FALSE(source.next(e));
}

TEST(Serve, MissingEndTerminatesCleanly) {
  std::istringstream in("inv 0 1\ntick 0\n");
  LineProtocolSource source(in);
  StreamEvent e;
  std::size_t events = 0;
  while (source.next(e)) ++events;
  EXPECT_EQ(e.kind, EventKind::kEnd);  // synthesized at EOF
  EXPECT_EQ(events, 3u);
}

TEST(Serve, LateAndOutOfRangeEventsAreDropped) {
  const trace::Trace trace = small_trace();
  const sim::Deployment deployment = deployment_for(trace);
  const auto policy = policies::make_policy("pulse");
  ServeConfig config;
  config.horizon = 100;
  OnlineServer server(deployment, *policy, config);

  server.ingest({EventKind::kInvocation, 0, 0, 1});
  server.ingest({EventKind::kTick, 0, 0, 0});
  EXPECT_EQ(server.open_minute(), 1);

  server.ingest({EventKind::kInvocation, 0, 0, 1});  // minute 0 already simulated
  server.ingest({EventKind::kTick, 0, 0, 0});        // duplicate tick
  EXPECT_EQ(server.stats().dropped_late, 2u);

  server.ingest({EventKind::kInvocation, 100, 0, 1});  // minute >= horizon
  server.ingest({EventKind::kInvocation, 5, 999, 1});  // unknown function
  EXPECT_EQ(server.stats().dropped_out_of_range, 2u);

  EXPECT_EQ(server.stats().invocation_events, 1u);
  EXPECT_EQ(server.stats().ticks, 1u);
}

TEST(Serve, CountPastUint32IsDroppedOrThrowsInStrictMode) {
  // Two `inv` lines of 4294967295 for one (minute, function) would wrap the
  // buffer's uint32 cell while stats().invocations counted both.
  const trace::Trace trace = small_trace();
  const sim::Deployment deployment = deployment_for(trace);
  for (const bool strict : {false, true}) {
    const auto policy = policies::make_policy("pulse");
    ServeConfig config;
    config.horizon = 100;
    config.strict = strict;
    OnlineServer server(deployment, *policy, config);
    server.ingest({EventKind::kInvocation, 3, 0, 4294967295u});
    if (strict) {
      EXPECT_THROW(server.ingest({EventKind::kInvocation, 3, 0, 1}), std::runtime_error);
    } else {
      server.ingest({EventKind::kInvocation, 3, 0, 4294967295u});
    }
    EXPECT_EQ(server.stats().dropped_out_of_range, 1u);
    EXPECT_EQ(server.stats().invocation_events, 1u);
    EXPECT_EQ(server.stats().invocations, 4294967295u);
  }
}

TEST(Serve, StrictServerThrowsOnLateEvent) {
  const trace::Trace trace = small_trace();
  const sim::Deployment deployment = deployment_for(trace);
  const auto policy = policies::make_policy("pulse");
  ServeConfig config;
  config.horizon = 100;
  config.strict = true;
  OnlineServer server(deployment, *policy, config);
  server.ingest({EventKind::kTick, 0, 0, 0});
  EXPECT_THROW(server.ingest({EventKind::kInvocation, 0, 0, 1}), std::runtime_error);
}

TEST(Serve, TickAtTheLargestMinuteClosesTheHorizon) {
  // `tick 9223372036854775807` is a valid line; the server must close every
  // minute of its horizon for it, as it does for any tick past the horizon,
  // so finish() keeps the invocations delivered before it.
  const trace::Trace trace = small_trace();
  const sim::Deployment deployment = deployment_for(trace);
  constexpr trace::Minute kLargest = std::numeric_limits<trace::Minute>::max();
  for (const bool strict : {false, true}) {
    for (const trace::Minute tick : {kLargest, kLargest - 1}) {
      SCOPED_TRACE(std::string(strict ? "strict" : "lenient") + " tick " + std::to_string(tick));
      std::istringstream in("inv 0 0\ninv 5 1\ntick " + std::to_string(tick) + "\nend\n");
      LineProtocolSource source(in, {.strict = strict});
      const auto policy = policies::make_policy("pulse");
      ServeConfig config;
      config.horizon = 30;
      config.strict = strict;
      OnlineServer server(deployment, *policy, config);
      const ServeStats& stats = server.drain(source);
      EXPECT_EQ(stats.ticks, 1u);
      EXPECT_EQ(stats.dropped_late, 0u);
      EXPECT_EQ(server.open_minute(), 30);
      EXPECT_EQ(server.finish().invocations, 2u);
    }
  }
}

TEST(Serve, TickGapsSimulateSkippedIdleMinutes) {
  // A tick for minute m certifies everything before it; skipping straight
  // to m must behave like the batch run over the same (idle) minutes.
  const trace::Trace trace = small_trace(3);
  const sim::Deployment deployment = deployment_for(trace);
  const sim::RunResult batch = batch_run(deployment, trace, "pulse");

  const auto policy = policies::make_policy("pulse");
  ServeConfig config;
  config.horizon = trace.duration();
  OnlineServer server(deployment, *policy, config);
  // Deliver all invocations up front, then a single closing tick.
  for (trace::Minute t = 0; t < trace.duration(); ++t) {
    for (trace::FunctionId f = 0; f < trace.function_count(); ++f) {
      const std::uint32_t n = trace.count(f, t);
      if (n > 0) server.ingest({EventKind::kInvocation, t, f, n});
    }
  }
  server.ingest({EventKind::kTick, trace.duration() - 1, 0, 0});
  expect_bitwise_equal(server.finish(), batch, "single closing tick");
}

// The predictor state the serve path reuses (mutable memo windows, the AR
// fit scratch, the FFT plan and its scratch) lives per policy instance;
// ensemble runs spawn one instance per run, so results must be
// bit-identical at any thread count.
class EnsembleThreads : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EnsembleThreads, StreamingPoliciesAreThreadCountInvariant) {
  const trace::Trace trace = small_trace(11, 300);
  static const models::ModelZoo zoo = models::ModelZoo::builtin();

  const auto run_with = [&](const sim::PolicyFactory& factory, std::size_t threads) {
    sim::EnsembleConfig config;
    config.runs = 8;
    config.seed = 5;
    config.threads = threads;
    return sim::run_ensemble(zoo, trace, factory, config);
  };

  const std::vector<std::pair<std::string, sim::PolicyFactory>> factories = {
      {"pulse", [] { return policies::make_policy("pulse"); }},
      {"wild", [] { return policies::make_policy("wild"); }},
      {"icebreaker", [] { return policies::make_policy("icebreaker"); }},
  };

  const std::size_t threads = GetParam();
  for (const auto& [name, factory] : factories) {
    const sim::EnsembleResult reference = run_with(factory, 1);
    const sim::EnsembleResult parallel = run_with(factory, threads);
    ASSERT_EQ(reference.runs.size(), parallel.runs.size()) << name;
    for (std::size_t i = 0; i < reference.runs.size(); ++i) {
      expect_bitwise_equal(parallel.runs[i], reference.runs[i],
                           name + " run " + std::to_string(i));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, EnsembleThreads, ::testing::Values(1u, 4u, 16u));

}  // namespace
}  // namespace pulse::serve
