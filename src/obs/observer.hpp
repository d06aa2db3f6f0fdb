#pragma once
// The single handle the engine and the policies hold on the observability
// layer. All three members are optional and non-owning; the default
// Observer is fully disabled and emission compiles down to one predictable
// null-check branch per site — the layer's zero-overhead contract.
//
// Determinism contract: attaching any combination of sink / metrics /
// profiler must leave RunResult bitwise identical. Nothing reachable from
// an Observer may touch engine RNG streams or result arithmetic
// (tests/obs/obs_determinism_test.cpp is the gate).

#include "obs/event.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/profiler.hpp"
#include "obs/trace_sink.hpp"

namespace pulse::obs {

struct Observer {
  TraceSink* sink = nullptr;
  MetricsRegistry* metrics = nullptr;
  PhaseProfiler* profiler = nullptr;

  [[nodiscard]] bool any() const noexcept {
    return sink != nullptr || metrics != nullptr || profiler != nullptr;
  }
};

}  // namespace pulse::obs
