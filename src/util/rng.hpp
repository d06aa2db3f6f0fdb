#pragma once
// Deterministic pseudo-random number generation for reproducible simulation.
//
// Every stochastic component in this repository (trace generation, latency
// jitter, random model-to-function assignment, the random-mix baseline) is
// seeded explicitly so that a given (seed, run index) pair always produces
// the same experiment. std::mt19937 is deliberately avoided for the hot
// paths: Pcg32 is smaller, faster, and its output is stable across standard
// library implementations, which std::distributions are not.

#include <cstdint>
#include <cmath>
#include <limits>
#include <numbers>

namespace pulse::util {

/// PCG32 (XSH-RR 64/32, O'Neill 2014): the workhorse generator.
/// Satisfies std::uniform_random_bit_generator.
class Pcg32 {
 public:
  using result_type = std::uint32_t;

  constexpr Pcg32() noexcept : Pcg32(0x853c49e6748fea9bULL, 0xda3e39cb94b95bdbULL) {}

  explicit constexpr Pcg32(std::uint64_t seed, std::uint64_t stream = 1) noexcept
      : state_(0), inc_((stream << 1u) | 1u) {
    next_u32();
    state_ += seed;
    next_u32();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept { return next_u32(); }

  constexpr std::uint32_t next_u32() noexcept {
    const std::uint64_t old = state_;
    state_ = old * 6364136223846793005ULL + inc_;
    const auto xorshifted = static_cast<std::uint32_t>(((old >> 18u) ^ old) >> 27u);
    const auto rot = static_cast<std::uint32_t>(old >> 59u);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  /// Uniform integer in [0, bound) without modulo bias (Lemire rejection).
  constexpr std::uint32_t bounded(std::uint32_t bound) noexcept {
    if (bound <= 1) return 0;
    const std::uint32_t threshold = (0u - bound) % bound;
    for (;;) {
      const std::uint32_t r = next_u32();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1) with 53 random bits.
  constexpr double uniform() noexcept {
    const std::uint64_t hi = next_u32() >> 5;  // 27 bits
    const std::uint64_t lo = next_u32() >> 6;  // 26 bits
    return static_cast<double>((hi << 26) | lo) * (1.0 / 9007199254740992.0);  // 2^53
  }

  /// Uniform double in [lo, hi).
  constexpr double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// true with probability p (clamped to [0,1]).
  constexpr bool bernoulli(double p) noexcept { return uniform() < p; }

 private:
  std::uint64_t state_;
  std::uint64_t inc_;
};

/// The SplitMix64 output mixer (Steele, Lea, Flood 2014) as a pure
/// function: the mixer behind every hash-derived decision stream in the
/// repository (fault injection, the per-function simulator streams,
/// capacity-eviction victim picks, the cluster's shard partitioner).
[[nodiscard]] constexpr std::uint64_t hash_mix64(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Catalog function f's own generator for one purpose (its latency jitter,
/// or the engine's Bernoulli accuracy), drawn in serving order: adding,
/// removing or re-sharding other functions never shifts f's samples, and
/// the accuracy draws never shift its jitter.
inline constexpr std::uint64_t kJitterStream = 0x9a7f02;
inline constexpr std::uint64_t kAccuracyStream = 0x0acc'0117;
[[nodiscard]] constexpr Pcg32 function_stream(std::uint64_t seed, std::uint64_t f,
                                              std::uint64_t purpose) noexcept {
  return Pcg32(seed, hash_mix64((f + 0x9e3779b97f4a7c15ULL) ^ purpose));
}

/// Well-mixed 64-bit hash of (seed, stream, a, b). `stream` separates
/// purposes (crash vs latency vs eviction...), `a`/`b` are the event
/// coordinates (function id, minute, invocation index). The chain is the
/// one fault::FaultInjector has always used, exposed so every hash-derived
/// stream draws from the same audited construction.
[[nodiscard]] constexpr std::uint64_t hash_u64(std::uint64_t seed, std::uint64_t stream,
                                               std::uint64_t a, std::uint64_t b) noexcept {
  std::uint64_t h = seed + 0x9e3779b97f4a7c15ULL;
  h = hash_mix64(h ^ stream);
  h = hash_mix64(h ^ (a + 0x9e3779b97f4a7c15ULL));
  h = hash_mix64(h ^ (b + 0x517cc1b727220a95ULL));
  return h;
}

/// Uniform [0, 1) derived purely from (seed, stream, a, b) — 53 bits.
[[nodiscard]] constexpr double hash_uniform(std::uint64_t seed, std::uint64_t stream,
                                            std::uint64_t a, std::uint64_t b) noexcept {
  return static_cast<double>(hash_u64(seed, stream, a, b) >> 11) *
         (1.0 / 9007199254740992.0);  // 2^53
}

/// Standard normal via Box-Muller (no cached second value: keeps the
/// generator state a pure function of the call count).
inline double normal(Pcg32& rng, double mean = 0.0, double stddev = 1.0) {
  double u1 = rng.uniform();
  if (u1 < 1e-300) u1 = 1e-300;
  const double u2 = rng.uniform();
  const double mag = std::sqrt(-2.0 * std::log(u1));
  return mean + stddev * mag * std::cos(2.0 * std::numbers::pi * u2);
}

/// Lognormal with given *underlying* normal mu/sigma.
inline double lognormal(Pcg32& rng, double mu, double sigma) {
  return std::exp(normal(rng, mu, sigma));
}

/// A lognormal given by the distribution's own mean and coefficient of
/// variation ("exec time = 1.09 s +/- 10% jitter"), with the underlying
/// mu/sigma computed once. A non-positive mean or CV is a constant that
/// consumes no generator state.
struct LognormalParams {
  double mu = 0.0;
  double sigma = 0.0;
  double constant = 0.0;  // the value when !random
  bool random = false;
};

[[nodiscard]] inline LognormalParams lognormal_params(double mean, double cv) {
  if (mean <= 0.0) return {};
  if (cv <= 0.0) return {0.0, 0.0, mean, false};
  const double sigma2 = std::log(1.0 + cv * cv);
  const double mu = std::log(mean) - 0.5 * sigma2;
  return {mu, std::sqrt(sigma2), 0.0, true};
}

inline double lognormal(Pcg32& rng, const LognormalParams& p) {
  return p.random ? lognormal(rng, p.mu, p.sigma) : p.constant;
}

/// Poisson sample. Knuth for small lambda, normal approximation above 64.
inline int poisson(Pcg32& rng, double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda > 64.0) {
    const double v = normal(rng, lambda, std::sqrt(lambda));
    return v < 0.0 ? 0 : static_cast<int>(v + 0.5);
  }
  const double limit = std::exp(-lambda);
  double prod = rng.uniform();
  int n = 0;
  while (prod > limit) {
    prod *= rng.uniform();
    ++n;
  }
  return n;
}

/// Pareto (type I) sample with scale x_m and shape alpha: heavy-tailed
/// inter-arrival gaps, used by the heavy-tail trace pattern.
inline double pareto(Pcg32& rng, double scale, double alpha) {
  double u = rng.uniform();
  if (u < 1e-12) u = 1e-12;
  return scale / std::pow(u, 1.0 / alpha);
}

/// Exponential sample with given rate.
inline double exponential(Pcg32& rng, double rate) {
  double u = rng.uniform();
  if (u < 1e-300) u = 1e-300;
  return -std::log(u) / rate;
}

}  // namespace pulse::util
