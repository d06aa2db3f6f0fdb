#include "exp/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>

#include "util/rng.hpp"

namespace pulse::exp {

namespace {

long env_long(const char* name, long fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  try {
    return std::stol(raw);
  } catch (...) {
    return fallback;
  }
}

// Hash-stream ids separating the derived-scenario randomness purposes.
constexpr std::uint64_t kStreamDriftRound = 101;
constexpr std::uint64_t kStreamCrowdCenter = 102;
constexpr std::uint64_t kStreamCrowdMember = 103;
constexpr std::uint64_t kStreamCrowdRound = 104;
constexpr std::uint64_t kStreamCrowdSurge = 105;
constexpr std::uint64_t kStreamTenantRound = 106;

// Deterministic stochastic rounding: integer part always lands, the
// fractional part becomes one extra invocation with matching probability,
// decided by a hash of the cell coordinates so evaluation order is
// irrelevant. Exact integers pass through untouched.
std::uint32_t stochastic_round(double expected, std::uint64_t seed,
                               std::uint64_t stream, std::uint64_t a,
                               std::uint64_t b) {
  if (expected <= 0.0) return 0;
  constexpr double kMax = static_cast<double>(std::numeric_limits<std::uint32_t>::max());
  if (expected >= kMax) return std::numeric_limits<std::uint32_t>::max();
  const double floor_part = std::floor(expected);
  auto n = static_cast<std::uint32_t>(floor_part);
  const double frac = expected - floor_part;
  if (frac > 0.0 && util::hash_uniform(seed, stream, a, b) < frac) ++n;
  return n;
}

}  // namespace

Scenario make_scenario(const ScenarioConfig& config) {
  Scenario s;
  s.config = config;
  s.zoo = models::ModelZoo::builtin();

  trace::WorkloadConfig w;
  w.function_count = config.function_count;
  w.duration = config.days * trace::kMinutesPerDay;
  w.seed = config.seed;
  w.global_peaks = config.global_peaks;
  w.peak_intensity = config.peak_intensity;
  s.workload = trace::build_azure_like_workload(w);
  return s;
}

std::size_t bench_ensemble_runs(std::size_t default_runs) {
  const long v = env_long("PULSE_BENCH_RUNS", static_cast<long>(default_runs));
  return v > 0 ? static_cast<std::size_t>(v) : default_runs;
}

trace::Minute bench_trace_days(trace::Minute default_days) {
  const long v = env_long("PULSE_BENCH_DAYS", static_cast<long>(default_days));
  return v > 0 ? static_cast<trace::Minute>(v) : default_days;
}

trace::Trace apply_pattern_drift(const trace::Trace& base,
                                 const PatternDriftConfig& config) {
  const std::size_t functions = base.function_count();
  const trace::Minute duration = base.duration();
  trace::Trace out(functions, duration);
  for (trace::FunctionId f = 0; f < functions; ++f) {
    out.set_function_name(f, base.function_name(f));
  }

  constexpr trace::Minute day = trace::kMinutesPerDay;
  for (trace::FunctionId f = 0; f < functions; ++f) {
    for (trace::Minute t = 0; t < duration; ++t) {
      const trace::Minute d = t / day;
      const trace::Minute m = t % day;
      const auto shift = static_cast<trace::Minute>(
          std::llround(config.phase_drift_minutes_per_day * static_cast<double>(d)));
      const trace::Minute src_m = ((m - shift) % day + day) % day;
      const std::uint32_t src = base.count(f, d * day + src_m);
      if (src == 0) continue;
      const double scale =
          std::pow(1.0 + config.amplitude_drift_per_day, static_cast<double>(d));
      const std::uint32_t c = stochastic_round(
          static_cast<double>(src) * scale, config.seed, kStreamDriftRound, f,
          static_cast<std::uint64_t>(t));
      if (c > 0) out.set_count(f, t, c);
    }
  }
  return out;
}

std::vector<trace::Minute> flash_crowd_minutes(const FlashCrowdConfig& config,
                                               trace::Minute duration) {
  std::vector<trace::Minute> centers;
  const trace::Minute margin = config.ramp + config.hold;
  const trace::Minute span = duration - 2 * margin;
  if (span <= 0 || config.crowds == 0) return centers;
  centers.reserve(config.crowds);
  for (std::size_t k = 0; k < config.crowds; ++k) {
    const double u = util::hash_uniform(config.seed, kStreamCrowdCenter, k, 0);
    centers.push_back(margin +
                      static_cast<trace::Minute>(u * static_cast<double>(span)));
  }
  std::sort(centers.begin(), centers.end());
  return centers;
}

trace::Trace inject_flash_crowds(const trace::Trace& base,
                                 const FlashCrowdConfig& config) {
  const std::size_t functions = base.function_count();
  const trace::Minute duration = base.duration();
  const std::vector<trace::Minute> centers = flash_crowd_minutes(config, duration);

  trace::Trace out(functions, duration);
  for (trace::FunctionId f = 0; f < functions; ++f) {
    out.set_function_name(f, base.function_name(f));
  }

  // Envelope of crowd k at minute t: 1 on [center, center + hold), linear
  // ramps of `ramp` minutes on both sides, 0 elsewhere.
  const auto envelope = [&](trace::Minute center, trace::Minute t) -> double {
    if (config.ramp <= 0) return (t >= center && t < center + config.hold) ? 1.0 : 0.0;
    if (t < center) {
      const trace::Minute lead = center - t;
      if (lead >= config.ramp) return 0.0;
      return 1.0 - static_cast<double>(lead) / static_cast<double>(config.ramp);
    }
    if (t < center + config.hold) return 1.0;
    const trace::Minute trail = t - (center + config.hold);
    if (trail >= config.ramp) return 0.0;
    return 1.0 - static_cast<double>(trail) / static_cast<double>(config.ramp);
  };

  for (trace::FunctionId f = 0; f < functions; ++f) {
    for (trace::Minute t = 0; t < duration; ++t) {
      const std::uint32_t src = base.count(f, t);
      double e = 0.0;
      for (std::size_t k = 0; k < centers.size(); ++k) {
        if (util::hash_uniform(config.seed, kStreamCrowdMember, k, f) >=
            config.participation) {
          continue;
        }
        e = std::max(e, envelope(centers[k], t));
        if (e >= 1.0) break;
      }
      if (e <= 0.0) {
        if (src > 0) out.set_count(f, t, src);
        continue;
      }
      const double factor = 1.0 + (config.multiplier - 1.0) * e;
      std::uint32_t c = stochastic_round(static_cast<double>(src) * factor,
                                         config.seed, kStreamCrowdRound, f,
                                         static_cast<std::uint64_t>(t));
      const double surge = config.surge_rate * e;
      if (surge > 0.0) {
        util::Pcg32 rng(util::hash_u64(config.seed, kStreamCrowdSurge, f,
                                       static_cast<std::uint64_t>(t)));
        // Saturating: a huge surge_rate must not wrap the count.
        const std::uint32_t fresh = static_cast<std::uint32_t>(util::poisson(rng, surge));
        c = fresh > std::numeric_limits<std::uint32_t>::max() - c
                ? std::numeric_limits<std::uint32_t>::max()
                : c + fresh;
      }
      if (c > 0) out.set_count(f, t, c);
    }
  }
  return out;
}

trace::Trace compose_multi_tenant(const trace::Trace& base,
                                  const MultiTenantConfig& config) {
  const std::size_t functions = base.function_count();
  const trace::Minute duration = base.duration();
  const std::size_t tenants = std::max<std::size_t>(config.tenants, 1);

  trace::Trace out(tenants * functions, duration);
  const auto in_burst = [&](trace::Minute t) {
    return config.burst_every > 0 && (t % config.burst_every) < config.burst_length;
  };

  for (std::size_t i = 0; i < tenants; ++i) {
    const bool aggressor = tenants > 1 && i == tenants - 1;
    const auto rotation = static_cast<trace::Minute>(i) * config.phase_stagger;
    std::string prefix = "t";
    prefix += std::to_string(i);
    prefix += '/';
    for (trace::FunctionId f = 0; f < functions; ++f) {
      const trace::FunctionId g = i * functions + f;
      out.set_function_name(g, prefix + base.function_name(f));
      for (trace::Minute t = 0; t < duration; ++t) {
        const trace::Minute src_t =
            duration > 0 ? ((t - rotation) % duration + duration) % duration : 0;
        const std::uint32_t src = base.count(f, src_t);
        if (src == 0) continue;
        double scale = config.load_scale;
        if (aggressor && in_burst(t)) scale *= config.aggressor_scale;
        const std::uint32_t c =
            stochastic_round(static_cast<double>(src) * scale, config.seed,
                             kStreamTenantRound, g, static_cast<std::uint64_t>(t));
        if (c > 0) out.set_count(g, t, c);
      }
    }
  }
  return out;
}

trace::Trace make_derived_scenario(const trace::Trace& base, std::string_view name,
                                   std::uint64_t seed) {
  if (name == "drift") {
    PatternDriftConfig c;
    c.seed = seed;
    return apply_pattern_drift(base, c);
  }
  if (name == "flash-crowd") {
    FlashCrowdConfig c;
    c.seed = seed;
    return inject_flash_crowds(base, c);
  }
  if (name == "multi-tenant") {
    MultiTenantConfig c;
    c.seed = seed;
    return compose_multi_tenant(base, c);
  }
  std::string known;
  for (const std::string_view n : derived_scenario_names()) {
    if (!known.empty()) known += ", ";
    known += n;
  }
  throw std::invalid_argument("unknown derived scenario '" + std::string(name) +
                              "' (known: " + known + ")");
}

std::vector<std::string_view> derived_scenario_names() {
  return {"drift", "flash-crowd", "multi-tenant"};
}

}  // namespace pulse::exp
