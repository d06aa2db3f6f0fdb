#include "trace/workload.hpp"

#include <algorithm>
#include <stdexcept>

namespace pulse::trace {

namespace {

/// The default pattern mix. Index chooses one of 12 archetypes; additional
/// functions beyond 12 wrap around with varied parameters.
PatternPtr make_archetype(std::size_t slot, util::Pcg32& rng) {
  const std::size_t kind = slot % 12;
  // Small per-slot parameter perturbations keep repeated archetypes from
  // being identical functions.
  const auto jig = [&](double lo, double hi) { return rng.uniform(lo, hi); };
  switch (kind) {
    case 0:  // frequent periodic: invocation every 3-5 minutes, jittered
      return periodic(3 + static_cast<Minute>(rng.bounded(3)), 0, 1, 0.08);
    case 1:  // slow periodic: every 8-15 minutes (straddles the keep-alive window)
      return periodic(8 + static_cast<Minute>(rng.bounded(8)), 3, 2, 0.08);
    case 2:  // hot function: invoked nearly every minute (the Azure trace's
             // most popular functions dominate invocation volume)
      return steady_poisson(jig(1.2, 2.5));
    case 3:  // diurnal business-hours function (active floor all day)
      return diurnal(jig(0.05, 0.12), jig(0.8, 1.5), 14 * 60);
    case 4:  // nocturnal batch function
      return diurnal(jig(0.05, 0.12), jig(0.6, 1.2), 14 * 60, /*nocturnal=*/true);
    case 5:  // bursty interactive function over a busy floor
      return bursty(jig(0.10, 0.20), 0.004, 4 + static_cast<Minute>(rng.bounded(5)),
                    jig(2.0, 5.0));
    case 6:  // heavy-tailed gaps, mean a few minutes with a long tail
      return heavy_tail(jig(1.5, 3.0), jig(1.3, 1.8));
    case 7:  // intermittent on/off at tens-of-minutes scale
      return intermittent(30 + static_cast<Minute>(rng.bounded(60)),
                          30 + static_cast<Minute>(rng.bounded(90)), jig(0.5, 1.0));
    case 8:  // drifting behaviour across trace thirds (Figure 2)
      return drifting(periodic(3, 0, 1, 0.05), steady_poisson(jig(0.20, 0.40)),
                      periodic(9, 0, 2, 0.1));
    case 9:  // jittered periodic
      return periodic(5 + static_cast<Minute>(rng.bounded(4)), 1, 2, 0.1);
    case 10:  // lighter Poisson (occasional cold-start candidates)
      return steady_poisson(jig(0.08, 0.15));
    case 11:  // frequent large bursts over a light floor
      return bursty(jig(0.05, 0.10), 0.0015, 6 + static_cast<Minute>(rng.bounded(6)),
                    jig(4.0, 8.0));
    default:
      return steady_poisson(0.1);
  }
}

}  // namespace

Workload build_azure_like_workload(const WorkloadConfig& config) {
  if (config.function_count == 0 || config.duration <= 0) {
    throw std::invalid_argument("build_azure_like_workload: empty workload");
  }
  util::Pcg32 rng(config.seed, /*stream=*/0x9e3779b9);

  Workload w;
  w.trace = Trace(config.function_count, config.duration);
  w.functions.reserve(config.function_count);

  for (FunctionId f = 0; f < config.function_count; ++f) {
    PatternPtr pattern = make_archetype(f, rng);
    util::Pcg32 fn_rng(config.seed + 1000 + f, /*stream=*/f + 1);
    pattern->generate(w.trace, f, fn_rng);
    w.trace.set_function_name(f, "fn" + std::to_string(f) + "_" + pattern->label());
    w.functions.push_back(FunctionSpec{w.trace.function_name(f), pattern->label()});
  }

  // Coordinated peaks, evenly spaced through the middle of the horizon.
  for (std::size_t p = 0; p < config.global_peaks; ++p) {
    const Minute at = config.duration * static_cast<Minute>(p + 1) /
                      static_cast<Minute>(config.global_peaks + 1);
    util::Pcg32 peak_rng(config.seed + 77 + p, /*stream=*/200 + p);
    inject_global_peak(w.trace, at, kGlobalPeakLength, config.peak_intensity, peak_rng);
    w.peak_minutes.push_back(at);
  }
  return w;
}

void inject_global_peak(Trace& trace, Minute minute, Minute length, double intensity,
                        util::Pcg32& rng) {
  for (FunctionId f = 0; f < trace.function_count(); ++f) {
    for (Minute dt = 0; dt < length; ++dt) {
      const Minute t = minute + dt;
      if (t < 0 || t >= trace.duration()) continue;
      // 1 + Poisson keeps every function active during the peak — the
      // paper's peak windows have all 12 functions invoked.
      const std::uint32_t n = 1u + static_cast<std::uint32_t>(util::poisson(rng, intensity));
      trace.add_invocations(f, t, n);
    }
  }
}

std::vector<Minute> find_peak_minutes(const Trace& trace, std::size_t k, Minute min_separation) {
  const std::vector<std::uint64_t> agg = trace.aggregate_series();
  std::vector<Minute> order(agg.size());
  for (std::size_t t = 0; t < agg.size(); ++t) order[t] = static_cast<Minute>(t);
  std::sort(order.begin(), order.end(),
            [&](Minute a, Minute b) { return agg[static_cast<std::size_t>(a)] > agg[static_cast<std::size_t>(b)]; });

  std::vector<Minute> peaks;
  for (Minute t : order) {
    if (peaks.size() >= k) break;
    const bool far_enough = std::all_of(peaks.begin(), peaks.end(), [&](Minute p) {
      return std::abs(p - t) >= min_separation;
    });
    if (far_enough) peaks.push_back(t);
  }
  std::sort(peaks.begin(), peaks.end());
  return peaks;
}

}  // namespace pulse::trace
