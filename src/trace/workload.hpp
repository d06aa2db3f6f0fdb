#pragma once
// Azure-like composite workload builder.
//
// Assembles the 12-function, two-week workload the paper's evaluation runs
// on: a mix of the pattern classes of Figures 1-2 plus injected global
// invocation peaks (the "Peak I"/"Peak II" events of Tables II-III).

#include <string>
#include <vector>

#include "trace/patterns.hpp"
#include "trace/trace.hpp"

namespace pulse::trace {

struct WorkloadConfig {
  std::size_t function_count = 12;
  Minute duration = 14 * kMinutesPerDay;  // two weeks, like the Azure trace
  std::uint64_t seed = 42;

  /// Number of coordinated invocation peaks injected across the horizon.
  std::size_t global_peaks = 2;

  /// During a peak, every function receives Poisson(peak_intensity)
  /// invocations per minute for kGlobalPeakLength minutes.
  double peak_intensity = 6.0;
};

/// Length of every injected global peak, minutes.
inline constexpr Minute kGlobalPeakLength = 3;

/// One function's description inside a built workload.
struct FunctionSpec {
  std::string name;
  std::string pattern_label;
};

/// A generated workload: the trace plus per-function metadata and the
/// minutes at which global peaks were injected.
struct Workload {
  Trace trace;
  std::vector<FunctionSpec> functions;
  std::vector<Minute> peak_minutes;
};

/// Builds the default 12-function Azure-like workload. Deterministic in
/// config.seed. The 12 slots cycle through: periodic-fast, periodic-slow,
/// steady, diurnal, nocturnal, bursty, heavy-tail, intermittent, drifting,
/// periodic-jittered, sparse-poisson, bursty-rare — covering every pattern
/// class Figures 1-2 exhibit.
[[nodiscard]] Workload build_azure_like_workload(const WorkloadConfig& config = {});

/// Injects a coordinated invocation spike at `minute` into every function of
/// `trace` (Poisson(intensity) per function-minute over `length` minutes).
void inject_global_peak(Trace& trace, Minute minute, Minute length, double intensity,
                        util::Pcg32& rng);

/// Locates the `k` most prominent peaks of the aggregate invocation series
/// (local maxima by volume, greedily separated by at least `min_separation`
/// minutes) — how the paper designated Peak I and Peak II.
[[nodiscard]] std::vector<Minute> find_peak_minutes(const Trace& trace, std::size_t k,
                                                    Minute min_separation = 60);

}  // namespace pulse::trace
