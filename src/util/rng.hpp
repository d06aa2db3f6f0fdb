#pragma once
// Deterministic pseudo-random number generation for reproducible simulation.
//
// Every stochastic component in this repository (trace generation, latency
// jitter, random model-to-function assignment, the random-mix baseline) is
// seeded explicitly so that a given (seed, run index) pair always produces
// the same experiment. std::mt19937 is deliberately avoided for the hot
// paths: Pcg32 is smaller, faster, and its output is stable across standard
// library implementations, which std::distributions are not.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

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

namespace detail {

/// The 256-layer ziggurat for the standard normal (Marsaglia & Tsang
/// 2000) in its 64-bit form (52-bit magnitudes, as NumPy draws): layer 0
/// is the base strip plus the tail beyond kR, layers 1..255 the boxes
/// stacked above it, each of area kV. Built once from the closed-form
/// recurrence; no draw runs any setup.
struct NormalZiggurat {
  static constexpr double kR = 3.6541528853610088;  // start of the tail
  static constexpr double kV = 0.00492867323399;    // area of every layer
  std::uint64_t k[256]{};  // magnitude below which layer i accepts outright
  double w[256]{};         // layer i's x per magnitude unit
  double f[256]{};         // exp(-x_i^2 / 2) at layer i's outer edge

  NormalZiggurat() noexcept {
    constexpr double kM = 0x1p52;
    double x = kR;
    const double q = kV / std::exp(-0.5 * x * x);
    k[0] = static_cast<std::uint64_t>(x / q * kM);
    k[1] = 0;  // the top layer has no inner box: every draw there takes the wedge test
    w[0] = q / kM;
    w[255] = x / kM;
    f[0] = 1.0;
    f[255] = std::exp(-0.5 * x * x);
    for (int i = 254; i >= 1; --i) {
      const double inner = std::sqrt(-2.0 * std::log(kV / x + std::exp(-0.5 * x * x)));
      k[i + 1] = static_cast<std::uint64_t>(inner / x * kM);
      x = inner;
      f[i] = std::exp(-0.5 * x * x);
      w[i] = x / kM;
    }
  }
};

}  // namespace detail

/// Normal draw by the ziggurat above. One 64-bit word (two next_u32)
/// gives the layer (low 8 bits), the sign (bit 8) and a 52-bit magnitude;
/// about 98.5% of draws return from the first comparison, with no libm
/// call. The rest pay one `exp` (the wedge test) or `log1p` (the tail)
/// and consume further words, so the generator state is not a function
/// of the call count: it is a pure function of the stream's history,
/// and both simulators draw each function's stream in serving order.
inline double normal(Pcg32& rng, double mean = 0.0, double stddev = 1.0) {
  static const detail::NormalZiggurat z;
  for (;;) {
    const std::uint64_t hi = rng.next_u32();
    const std::uint64_t lo = rng.next_u32();
    const std::uint64_t word = (hi << 32) | lo;
    const std::size_t layer = word & 0xffu;
    const bool negative = (word >> 8) & 1u;
    const std::uint64_t magnitude = (word >> 9) & 0x000f'ffff'ffff'ffffULL;
    const double x = static_cast<double>(magnitude) * z.w[layer];
    if (magnitude < z.k[layer]) return mean + stddev * (negative ? -x : x);
    if (layer == 0) {
      // The tail beyond kR (Marsaglia 1964), from 1 - U so log1p never sees -1.
      for (;;) {
        const double tx = -std::log1p(-rng.uniform()) / detail::NormalZiggurat::kR;
        const double ty = -std::log1p(-rng.uniform());
        if (ty + ty > tx * tx) {
          const double t = detail::NormalZiggurat::kR + tx;
          return mean + stddev * (negative ? -t : t);
        }
      }
    }
    const double y = z.f[layer] + (z.f[layer - 1] - z.f[layer]) * rng.uniform();
    if (y < std::exp(-0.5 * x * x)) return mean + stddev * (negative ? -x : x);
  }
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

/// Poisson sample. Knuth for small lambda, normal approximation above 64,
/// saturating at INT_MAX (lambda = +inf included): never negative.
inline int poisson(Pcg32& rng, double lambda) {
  if (lambda <= 0.0) return 0;
  if (lambda > 64.0) {
    const double v = normal(rng, lambda, std::sqrt(lambda)) + 0.5;
    if (v < 0.5) return 0;
    // !(v < 2^31) also catches the NaN that inf - inf gives at lambda = +inf.
    if (!(v < 2147483648.0)) return std::numeric_limits<int>::max();
    return static_cast<int>(v);
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
