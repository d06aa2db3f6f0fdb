// EventCollector / EventLane: the attached-mode event transport.
//
// The contracts under test (see obs/collector.hpp):
//   * lossless multi-producer transport — event totals and per-type counts
//     are exact for any producer count (the TSan job runs this file too);
//   * canonical feed — a RingBufferSink behind the collector retains
//     bit-identically what serial per-lane feeding would retain, also when
//     the lanes are uneven and the retained window spans several of them;
//   * overflow accounting — ring overwrites are counted per type and the
//     sink's totals stay exact.

#include "obs/collector.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "obs/trace_sink.hpp"
#include "platform/platform.hpp"
#include "policies/factory.hpp"
#include "serve/server.hpp"
#include "sim/ensemble.hpp"
#include "trace/workload.hpp"
#include "util/rng.hpp"

namespace pulse::obs {
namespace {

/// Deterministic per-producer event sequence: type cycles, minute advances,
/// value encodes (producer, i) so retained windows are comparable.
TraceEvent make_event(std::size_t producer, std::uint64_t i) {
  TraceEvent e;
  e.type = static_cast<EventType>(i % kEventTypeCount);
  e.minute = static_cast<trace::Minute>(i);
  e.function = producer;
  e.value = static_cast<double>(producer * 1'000'000 + i);
  return e;
}

TEST(EventCollector, MultiProducerDrainIsLossless) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20'000;

  RingBufferSink sink(1 << 15);
  EventCollector collector(sink, kProducers);

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kProducers; ++p) {
    producers.emplace_back([&collector, p] {
      EventLane& lane = collector.lane(p);
      for (std::uint64_t i = 0; i < kPerProducer; ++i) lane.record(make_event(p, i));
    });
  }
  for (auto& t : producers) t.join();
  collector.finish();

  constexpr std::uint64_t kTotal = kProducers * kPerProducer;
  EXPECT_EQ(sink.recorded(), kTotal);  // lossless: nothing dropped in transit

  // Per-type counts survive the transport exactly.
  const std::vector<std::uint64_t> counts = sink.counts_by_type();
  std::uint64_t sum = 0;
  for (std::size_t t = 0; t < counts.size(); ++t) {
    std::uint64_t expected = 0;
    for (std::uint64_t i = t; i < kPerProducer; i += kEventTypeCount) ++expected;
    EXPECT_EQ(counts[t], kProducers * expected) << "type " << t;
    sum += counts[t];
  }
  EXPECT_EQ(sum, kTotal);
  EXPECT_EQ(sink.dropped(), kTotal - sink.events().size());
}

TEST(EventCollector, StreamingSinkReceivesEveryLine) {
  constexpr std::size_t kProducers = 4;
  constexpr std::uint64_t kPerProducer = 5'000;
  const std::string path = testing::TempDir() + "collector_stream.jsonl";

  {
    JsonlFileSink sink(path);
    EventCollector collector(sink, kProducers);
    std::vector<std::thread> producers;
    for (std::size_t p = 0; p < kProducers; ++p) {
      producers.emplace_back([&collector, p] {
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
          collector.lane(p).record(make_event(p, i));
        }
      });
    }
    for (auto& t : producers) t.join();
    collector.finish();
    sink.flush();
    EXPECT_EQ(sink.lines_written(), kProducers * kPerProducer);
  }

  // Count physical lines: the batched fwrite path must emit whole lines.
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  std::uint64_t lines = 0;
  for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f)) {
    if (c == '\n') ++lines;
  }
  std::fclose(f);
  std::remove(path.c_str());
  EXPECT_EQ(lines, kProducers * kPerProducer);
}

TEST(EventCollector, CanonicalWindowMatchesSerialFeed) {
  constexpr std::size_t kCapacity = 256;
  // Per-lane event counts. Even lanes past the capacity force overwrites in
  // every lane; uneven ones leave a retained window that spans lanes (the
  // last 256 of 705 events: 251 from lane 0 and all 5 of lane 2).
  const std::vector<std::vector<std::uint64_t>> inputs = {{700, 700, 700}, {700, 0, 5}};

  for (const std::vector<std::uint64_t>& per_lane : inputs) {
    SCOPED_TRACE(::testing::PrintToString(per_lane));
    // Through the collector (producers sequential — a lane needs one
    // producer at a time, not one thread for all time).
    RingBufferSink collected(kCapacity);
    {
      EventCollector collector(collected, per_lane.size());
      for (std::size_t p = 0; p < per_lane.size(); ++p) {
        for (std::uint64_t i = 0; i < per_lane[p]; ++i) {
          collector.lane(p).record(make_event(p, i));
        }
      }
      collector.finish();
    }

    // Serial reference: the same per-lane streams fed directly, lane by lane.
    RingBufferSink serial(kCapacity);
    for (std::size_t p = 0; p < per_lane.size(); ++p) {
      for (std::uint64_t i = 0; i < per_lane[p]; ++i) serial.record(make_event(p, i));
    }

    EXPECT_EQ(collected.recorded(), serial.recorded());
    EXPECT_EQ(collected.dropped(), serial.dropped());
    EXPECT_EQ(collected.counts_by_type(), serial.counts_by_type());

    const std::vector<TraceEvent> a = collected.events();
    const std::vector<TraceEvent> b = serial.events();
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].type, b[i].type) << i;
      EXPECT_EQ(a[i].minute, b[i].minute) << i;
      EXPECT_EQ(a[i].function, b[i].function) << i;
      EXPECT_DOUBLE_EQ(a[i].value, b[i].value) << i;
    }
  }
}

// A stream ~50x the retained window: the lane overwrites nearly every
// event in place, yet the sink's totals count each one exactly.
TEST(EventCollector, WindowOverwritesKeepTotalsExact) {
  constexpr std::uint64_t kEvents = 50'000;
  RingBufferSink sink(1 << 10);
  EventCollector collector(sink, 1);
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    collector.lane(0).record(make_event(0, i));
  }
  collector.finish();
  EXPECT_EQ(sink.recorded(), kEvents);
  EXPECT_EQ(sink.dropped(), kEvents - (1u << 10));
  std::uint64_t by_type = 0;
  for (const std::uint64_t c : sink.counts_by_type()) by_type += c;
  EXPECT_EQ(by_type, kEvents);
}

// --- end-to-end through the ensemble runner ---

sim::EnsembleResult run_attached_ensemble(std::size_t threads, RingBufferSink& sink) {
  trace::WorkloadConfig wc;
  wc.function_count = 10;
  wc.duration = 360;
  wc.seed = 11;
  const trace::Workload workload = trace::build_azure_like_workload(wc);
  const models::ModelZoo zoo = models::ModelZoo::builtin();

  sim::EnsembleConfig config;
  config.runs = 16;
  config.seed = 33;
  config.threads = threads;
  config.engine.observer.sink = &sink;
  return sim::run_ensemble(zoo, workload.trace,
                           [] { return policies::make_policy("pulse"); }, config);
}

TEST(EnsembleCollector, EventTotalsAreThreadCountInvariant) {
  std::vector<std::vector<std::uint64_t>> counts;
  std::vector<std::uint64_t> recorded;
  std::uint64_t baseline_cost_bits = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    RingBufferSink sink(1 << 14);
    const sim::EnsembleResult result = run_attached_ensemble(threads, sink);
    counts.push_back(sink.counts_by_type());
    recorded.push_back(sink.recorded());
    // The simulation itself must not notice the transport: identical runs
    // for every thread count, sink attached or not.
    std::uint64_t bits = 0;
    for (const sim::RunResult& r : result.runs) {
      bits ^= static_cast<std::uint64_t>(r.invocations * 2654435761u) + r.cold_starts;
    }
    if (baseline_cost_bits == 0) baseline_cost_bits = bits;
    EXPECT_EQ(bits, baseline_cost_bits);
  }
  // Totals and per-type counts are exact across 1/4/16 threads.
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[0], counts[2]);
  EXPECT_EQ(recorded[0], recorded[1]);
  EXPECT_EQ(recorded[0], recorded[2]);
  EXPECT_GT(recorded[0], 0u);
}

// The collector-fed ensemble against the same runs executed serially, each
// with the sink attached to its own SimulationEngine (which feeds it through
// a one-lane collector of its own): the transport must neither lose nor
// invent events, nor perturb a run.
TEST(EnsembleCollector, LockFreeAndDirectPathsAgreeOnTotals) {
  trace::WorkloadConfig wc;
  wc.function_count = 8;
  wc.duration = 240;
  wc.seed = 3;
  const trace::Workload workload = trace::build_azure_like_workload(wc);
  const models::ModelZoo zoo = models::ModelZoo::builtin();

  RingBufferSink collected(1 << 14);
  sim::EnsembleConfig config;
  config.runs = 6;
  config.seed = 9;
  config.threads = 2;
  config.engine.observer.sink = &collected;
  const sim::EnsembleResult result = sim::run_ensemble(
      zoo, workload.trace, [] { return policies::make_policy("pulse"); }, config);

  // run_ensemble's per-run deployment and engine seed, replayed serially.
  RingBufferSink direct(1 << 14);
  for (std::size_t i = 0; i < config.runs; ++i) {
    util::Pcg32 assign_rng(config.seed + i, /*stream=*/i * 2 + 1);
    const sim::Deployment deployment =
        sim::Deployment::random(zoo, workload.trace.function_count(), assign_rng);
    sim::EngineConfig engine_config = config.engine;
    engine_config.seed = config.seed * 1000003 + i;
    engine_config.observer.sink = &direct;
    sim::SimulationEngine engine(deployment, workload.trace, engine_config);
    const auto policy = policies::make_policy("pulse");
    const sim::RunResult run = engine.run(*policy);
    EXPECT_EQ(run.invocations, result.runs[i].invocations) << "run " << i;
    EXPECT_EQ(run.cold_starts, result.runs[i].cold_starts) << "run " << i;
    EXPECT_EQ(run.total_keepalive_cost_usd, result.runs[i].total_keepalive_cost_usd)
        << "run " << i;
  }
  EXPECT_GT(collected.recorded(), 0u);
  EXPECT_EQ(collected.recorded(), direct.recorded());
  EXPECT_EQ(collected.counts_by_type(), direct.counts_by_type());
}

// --- lone runs: the run's own one-lane collector ---

void expect_same_events(const RingBufferSink& got, const RingBufferSink& want) {
  EXPECT_EQ(got.recorded(), want.recorded());
  EXPECT_EQ(got.counts_by_type(), want.counts_by_type());
  const std::vector<TraceEvent> a = got.events();
  const std::vector<TraceEvent> b = want.events();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type) << i;
    EXPECT_EQ(a[i].minute, b[i].minute) << i;
    EXPECT_EQ(a[i].function, b[i].function) << i;
    EXPECT_EQ(a[i].variant, b[i].variant) << i;
    EXPECT_EQ(a[i].value, b[i].value) << i;
    EXPECT_STREQ(a[i].detail, b[i].detail) << i;
  }
}

std::uint64_t count_of(const RingBufferSink& sink, EventType type) {
  return sink.counts_by_type().at(static_cast<std::size_t>(type));
}

// A RingBufferSink attached straight to a PlatformSimulator or an
// OnlineServer holds every event as soon as run() / finish() returns (the
// server is still alive then): the run puts it behind a one-lane collector
// of its own and finishes it first. The reference is the same run emitting
// into a caller-owned lane, which the run passes through untouched.
TEST(OwnLane, LonePlatformAndServerRunsHoldEveryEvent) {
  trace::WorkloadConfig wc;
  wc.function_count = 8;
  wc.duration = 240;
  wc.seed = 5;
  const trace::Trace trace = trace::build_azure_like_workload(wc).trace;
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, wc.function_count);
  constexpr std::size_t kCapacity = 1 << 16;

  {
    SCOPED_TRACE("platform");
    RingBufferSink attached(kCapacity);
    platform::PlatformConfig config;
    config.observer.sink = &attached;
    const auto policy = policies::make_policy("pulse");
    const platform::PlatformResult result =
        platform::PlatformSimulator(deployment, trace, config).run(*policy);

    RingBufferSink reference(kCapacity);
    {
      EventCollector collector(reference, 1);
      config.observer.sink = &collector.lane(0);
      const auto fresh = policies::make_policy("pulse");
      (void)platform::PlatformSimulator(deployment, trace, config).run(*fresh);
      collector.finish();
    }
    EXPECT_GT(attached.recorded(), 0u);
    EXPECT_EQ(attached.dropped(), 0u);
    EXPECT_EQ(count_of(attached, EventType::kPrewarm), result.prewarm_starts);
    expect_same_events(attached, reference);
  }
  {
    SCOPED_TRACE("server");
    RingBufferSink attached(kCapacity);
    serve::ServeConfig config;
    config.horizon = trace.duration();
    config.engine.observer.sink = &attached;
    const auto policy = policies::make_policy("pulse");
    serve::OnlineServer server(deployment, *policy, config);
    serve::ReplaySource source(trace);
    server.drain(source);
    const sim::RunResult result = server.finish();

    RingBufferSink reference(kCapacity);
    {
      EventCollector collector(reference, 1);
      sim::EngineConfig engine_config;
      engine_config.observer.sink = &collector.lane(0);
      const auto fresh = policies::make_policy("pulse");
      (void)sim::SimulationEngine(deployment, trace, engine_config).run(*fresh);
      collector.finish();
    }
    EXPECT_GT(attached.recorded(), 0u);
    EXPECT_EQ(attached.dropped(), 0u);
    EXPECT_EQ(count_of(attached, EventType::kColdStart), result.cold_starts);
    expect_same_events(attached, reference);
  }
}

}  // namespace
}  // namespace pulse::obs
