#pragma once
// Phase profiler: RAII wall-clock scopes around the simulator's four
// conceptual phases. With no profiler attached a PhaseTimer is a null check
// — no clock read, no allocation — so an engine with nothing attached pays
// only a branch per phase.
//
// Phase mapping (see docs/OBSERVABILITY.md):
//   kPredict  — predictor work (Wild's hybrid histogram, IceBreaker's FFT)
//   kSchedule — whole on_invocation calls (sim::PolicyCallTimer, sampled)
//   kOptimize — whole end_of_minute calls (sim::PolicyCallTimer)
//   kSimulate — the whole engine run; parent span of the other three
//
// A profiler is single-writer; the ensemble runner keeps one per worker
// slot and merges after the pool joins.

#include <array>
#include <chrono>
#include <cstdint>

namespace pulse::obs {

enum class Phase : std::uint8_t { kPredict, kOptimize, kSchedule, kSimulate };
inline constexpr std::size_t kPhaseCount = 4;

[[nodiscard]] const char* to_string(Phase phase) noexcept;

struct PhaseStats {
  std::uint64_t calls = 0;
  double total_s = 0.0;

  [[nodiscard]] double mean_s() const noexcept {
    return calls ? total_s / static_cast<double>(calls) : 0.0;
  }
};

class PhaseProfiler {
 public:
  void record(Phase phase, double seconds) noexcept {
    auto& s = phases_[static_cast<std::size_t>(phase)];
    ++s.calls;
    s.total_s += seconds;
  }

  [[nodiscard]] const PhaseStats& stats(Phase phase) const noexcept {
    return phases_[static_cast<std::size_t>(phase)];
  }

  /// Sums another profiler's phases into this one (per-slot aggregation).
  void merge(const PhaseProfiler& other) noexcept {
    for (std::size_t i = 0; i < kPhaseCount; ++i) {
      phases_[i].calls += other.phases_[i].calls;
      phases_[i].total_s += other.phases_[i].total_s;
    }
  }

 private:
  std::array<PhaseStats, kPhaseCount> phases_{};
};

/// RAII scope timer. Null profiler = fully inert (one branch, no clock).
class PhaseTimer {
 public:
  PhaseTimer(PhaseProfiler* profiler, Phase phase) noexcept
      : profiler_(profiler), phase_(phase) {
    if (profiler_ != nullptr) start_ = Clock::now();
  }

  ~PhaseTimer() {
    if (profiler_ != nullptr) {
      profiler_->record(phase_,
                        std::chrono::duration<double>(Clock::now() - start_).count());
    }
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  using Clock = std::chrono::steady_clock;
  PhaseProfiler* profiler_;
  Phase phase_;
  Clock::time_point start_{};
};

}  // namespace pulse::obs
