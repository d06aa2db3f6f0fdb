#pragma once
// Online serving mode: feeds a sim::SteppedRun from an incremental
// invocation source instead of a pre-materialized trace.
//
// The server owns a horizon-sized invocation buffer (a trace::Trace, fully
// allocated up front) and an engine run over it. Invocation events are
// written into the buffer; a tick for minute m certifies that every event
// for minutes <= m has been delivered, so the engine advances through
// minute m — running the policy's per-invocation and end-of-minute hooks
// exactly as a batch replay would. Feeding the events of a duration-D
// trace therefore produces a bit-identical RunResult to the batch run over
// that trace (tests/serve/serve_test.cpp pins this).
//
// Hot-path discipline: after construction (and the policy's own warm-up),
// ingest() performs no heap allocation and takes no locks — the buffer and
// schedule are preallocated, the engine's per-minute state is reused, the
// predictors refit into reused scratch (Wild's AR fit, IceBreaker's FFT
// plan) and the inter-arrival window is O(1)-update.
// tests/memory/serve_allocation_test.cpp enforces the zero-allocation
// property (counting global operator new, for pulse, wild and icebreaker).

#include <cstdint>
#include <memory>

#include "sim/engine.hpp"
#include "serve/source.hpp"

namespace pulse::serve {

struct ServeConfig {
  sim::EngineConfig engine{};

  /// Buffer-trace horizon, minutes: the largest minute the stream may
  /// address. Events at minutes >= horizon are rejected (counted, or a
  /// throw in strict mode). A horizon equal to the expected stream length
  /// reproduces the batch run bit-for-bit; a larger horizon only spends
  /// memory.
  trace::Minute horizon = 7 * trace::kMinutesPerDay;

  /// Throw std::runtime_error on late / out-of-range / unknown-function
  /// events instead of counting and dropping them.
  bool strict = false;
};

struct ServeStats {
  std::uint64_t events = 0;             // every event ingested
  std::uint64_t invocation_events = 0;  // kInvocation events accepted
  std::uint64_t invocations = 0;        // sum of their counts
  std::uint64_t ticks = 0;              // minutes closed
  std::uint64_t dropped_late = 0;       // minute already simulated
  std::uint64_t dropped_out_of_range = 0;  // minute >= horizon, bad function or
                                           // a minute's count past 2^32 - 1
};

class OnlineServer {
 public:
  /// deployment/policy must outlive the server; the policy is used
  /// exclusively by it (same contract as SteppedRun).
  OnlineServer(const sim::Deployment& deployment, sim::KeepAlivePolicy& policy,
               ServeConfig config);

  /// Applies one event. Invocations land in the buffer; a tick for minute
  /// m advances the simulation through m. Allocation-free.
  void ingest(const StreamEvent& event);

  /// Pulls `source` dry through ingest(). Returns the stats accumulated so
  /// far (across all drains).
  const ServeStats& drain(InvocationSource& source);

  /// Closes the run at the last minute the stream delivered and returns
  /// the final result. Call at most once.
  sim::RunResult finish();

  /// First minute the simulation has not yet executed.
  [[nodiscard]] trace::Minute open_minute() const noexcept { return run_->next_minute(); }

  [[nodiscard]] const ServeStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const ServeConfig& config() const noexcept { return config_; }

 private:
  ServeConfig config_;
  trace::Trace buffer_;
  std::unique_ptr<sim::SteppedRun> run_;
  ServeStats stats_;
};

}  // namespace pulse::serve
