#include "predict/fft.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <numbers>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace pulse::predict {
namespace {

// ---------------------------------------------------------------------------
// Replica of the harmonic fit before HarmonicPlan, kept verbatim: every call
// runs the twiddle recurrence, ranks bins with a comparator that takes
// std::abs per comparison, and evaluates cos/sin per kept bin and index.
// The table-driven plan and forecaster must reproduce it bit for bit.
// ---------------------------------------------------------------------------
namespace replica {

bool is_pow2(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

void fft(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  if (!is_pow2(n)) throw std::invalid_argument("fft: size must be a power of two");
  if (n == 1) return;

  // Bit-reversal permutation.
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }

  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle =
        (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wn(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < n; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = data[i + k];
        const std::complex<double> v = data[i + k + len / 2] * w;
        data[i + k] = u + v;
        data[i + k + len / 2] = u - v;
        w *= wn;
      }
    }
  }

  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (auto& x : data) x *= scale;
  }
}

double evaluate_model(const std::vector<std::complex<double>>& coeffs,
                      const std::vector<std::size_t>& bins, std::size_t n_padded,
                      double index) {
  const double n = static_cast<double>(n_padded);
  std::complex<double> acc{0.0, 0.0};
  for (std::size_t j : bins) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(j) * index / n;
    acc += coeffs[j] * std::complex<double>(std::cos(angle), std::sin(angle));
  }
  return acc.real() / n;
}

struct HarmonicModel {
  std::vector<std::complex<double>> coeffs;
  std::vector<std::size_t> bins;
  std::size_t n_padded = 0;
};

std::vector<std::size_t> kept_bins(const std::vector<std::complex<double>>& coeffs,
                                   std::size_t harmonics) {
  const std::size_t n_padded = coeffs.size();
  // Rank positive-frequency bins by magnitude. Bin j and its conjugate
  // mirror N-j are kept together so the reconstruction stays real.
  std::vector<std::size_t> candidates;
  for (std::size_t j = 1; j <= n_padded / 2; ++j) candidates.push_back(j);
  std::sort(candidates.begin(), candidates.end(), [&](std::size_t a, std::size_t b) {
    return std::abs(coeffs[a]) > std::abs(coeffs[b]);
  });

  std::vector<std::size_t> bins;
  bins.push_back(0);  // DC: the mean invocation level
  const std::size_t keep = std::min(harmonics, candidates.size());
  for (std::size_t k = 0; k < keep; ++k) {
    const std::size_t j = candidates[k];
    bins.push_back(j);
    const std::size_t mirror = (n_padded - j) % n_padded;
    if (mirror != j && mirror != 0) bins.push_back(mirror);
  }
  return bins;
}

HarmonicModel fit_harmonics(std::span<const double> series, std::size_t harmonics) {
  HarmonicModel model;
  if (series.empty()) return model;

  model.n_padded = next_pow2(series.size());
  model.coeffs.assign(model.n_padded, {0.0, 0.0});
  for (std::size_t i = 0; i < series.size(); ++i) model.coeffs[i] = series[i];
  fft(model.coeffs, /*inverse=*/false);
  model.bins = kept_bins(model.coeffs, harmonics);
  return model;
}

std::vector<double> harmonic_extrapolate(std::span<const double> series,
                                         std::size_t harmonics, std::size_t horizon) {
  std::vector<double> out(horizon, 0.0);
  if (series.empty() || horizon == 0) return out;
  const std::size_t n_fit = prev_pow2(series.size());
  const std::span<const double> suffix = series.subspan(series.size() - n_fit, n_fit);
  const HarmonicModel model = fit_harmonics(suffix, harmonics);
  for (std::size_t h = 0; h < horizon; ++h) {
    out[h] = evaluate_model(model.coeffs, model.bins, model.n_padded,
                            static_cast<double>(n_fit + h));
  }
  return out;
}

std::vector<double> harmonic_reconstruct(std::span<const double> series,
                                         std::size_t harmonics) {
  std::vector<double> out(series.size(), 0.0);
  if (series.empty()) return out;
  const HarmonicModel model = fit_harmonics(series, harmonics);
  for (std::size_t i = 0; i < series.size(); ++i) {
    out[i] = evaluate_model(model.coeffs, model.bins, model.n_padded, static_cast<double>(i));
  }
  return out;
}

}  // namespace replica

// Bit-for-bit equality, except that any two NaNs match: IEEE 754-2008
// §6.3 leaves the sign of a NaN result unspecified, and builds differ in it
// (CI's gcc-tsan build flips it on some all-NaN spectra). Every other value,
// ±inf and ±0 included, must match bit for bit.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

bool same_bits(std::complex<double> a, std::complex<double> b) {
  return same_bits(a.real(), b.real()) && same_bits(a.imag(), b.imag());
}

template <typename T>
bool bitwise_equal(const std::vector<T>& expected, std::span<const T> actual) {
  return std::equal(expected.begin(), expected.end(), actual.begin(), actual.end(),
                    [](const T& a, const T& b) { return same_bits(a, b); });
}

// The last five shapes aim at the forecaster's fallbacks: a lone spike has
// bins of near-equal magnitude (all inside the norm screen's margin); a
// spike train whose period divides the fit size has exactly tied and
// exactly zero bins (the full sort); counts past 2^900 take the checked
// butterflies and overflow the norms (no screen); an inf and a NaN entry
// give NaN keys; counts near 2^-500 put every norm below the screen's floor.
enum class SeriesKind {
  kZero,
  kConstant,
  kSparsePoisson,
  kDenseDiurnal,
  kSpike,
  kPeriodic,
  kHuge,
  kNonFinite,
  kTiny
};

std::vector<double> make_series(SeriesKind kind, std::size_t n) {
  util::Pcg32 rng(1000 + static_cast<std::uint64_t>(kind));
  std::vector<double> series(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double day_phase = 2.0 * std::numbers::pi * static_cast<double>(i) / 1440.0;
    switch (kind) {
      case SeriesKind::kZero: break;
      case SeriesKind::kConstant: series[i] = 3.0; break;
      case SeriesKind::kSparsePoisson: series[i] = util::poisson(rng, 0.05); break;
      case SeriesKind::kDenseDiurnal:
        series[i] = util::poisson(rng, 20.0 + 15.0 * std::sin(day_phase));
        break;
      case SeriesKind::kSpike: series[i] = i == 300 ? 7.0 : 0.0; break;
      case SeriesKind::kPeriodic: series[i] = i % 8 == 0 ? 4.0 : (i % 8 == 3 ? 1.0 : 0.0); break;
      case SeriesKind::kHuge: series[i] = 0x1p1000 * util::poisson(rng, 2.0); break;
      case SeriesKind::kNonFinite:
        series[i] = i == 200   ? std::numeric_limits<double>::infinity()
                    : i == 450 ? std::numeric_limits<double>::quiet_NaN()
                               : util::poisson(rng, 3.0);
        break;
      case SeriesKind::kTiny: series[i] = 0x1p-500 * util::poisson(rng, 3.0); break;
    }
  }
  return series;
}

std::string kind_name(const ::testing::TestParamInfo<SeriesKind>& info) {
  switch (info.param) {
    case SeriesKind::kZero: return "zero";
    case SeriesKind::kConstant: return "constant";
    case SeriesKind::kSparsePoisson: return "sparse_poisson";
    case SeriesKind::kDenseDiurnal: return "dense_diurnal";
    case SeriesKind::kSpike: return "spike";
    case SeriesKind::kPeriodic: return "periodic";
    case SeriesKind::kHuge: return "huge";
    case SeriesKind::kNonFinite: return "non_finite";
    case SeriesKind::kTiny: return "tiny";
  }
  return "unknown";
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(0), 1u);
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(2), 2u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Fft, NonPow2Throws) {
  std::vector<std::complex<double>> data(6);
  EXPECT_THROW(fft(data), std::invalid_argument);
}

TEST(Fft, SizeOneIsIdentity) {
  std::vector<std::complex<double>> data{{3.0, -1.0}};
  fft(data);
  EXPECT_DOUBLE_EQ(data[0].real(), 3.0);
  EXPECT_DOUBLE_EQ(data[0].imag(), -1.0);
}

TEST(Fft, DcComponentOfConstant) {
  std::vector<std::complex<double>> data(8, {2.0, 0.0});
  fft(data);
  EXPECT_NEAR(data[0].real(), 16.0, 1e-12);
  for (std::size_t i = 1; i < 8; ++i) EXPECT_NEAR(std::abs(data[i]), 0.0, 1e-12);
}

TEST(Fft, ForwardInverseRoundTrip) {
  std::vector<std::complex<double>> data;
  for (int i = 0; i < 64; ++i) {
    data.emplace_back(std::sin(0.3 * i) + 0.2 * i, std::cos(0.7 * i));
  }
  const auto original = data;
  fft(data, false);
  fft(data, true);
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-9);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-9);
  }
}

TEST(Fft, PureToneLandsInOneBin) {
  constexpr std::size_t n = 64;
  constexpr std::size_t k = 5;
  std::vector<std::complex<double>> data;
  for (std::size_t i = 0; i < n; ++i) {
    data.emplace_back(std::cos(2.0 * std::numbers::pi * k * i / n), 0.0);
  }
  fft(data);
  // Energy concentrated in bins k and n-k.
  EXPECT_NEAR(std::abs(data[k]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[n - k]), n / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[k + 1]), 0.0, 1e-9);
}

TEST(Fft, ParsevalHolds) {
  std::vector<std::complex<double>> data;
  for (int i = 0; i < 32; ++i) data.emplace_back(std::sin(1.1 * i), 0.0);
  double time_energy = 0.0;
  for (const auto& x : data) time_energy += std::norm(x);
  fft(data);
  double freq_energy = 0.0;
  for (const auto& x : data) freq_energy += std::norm(x);
  EXPECT_NEAR(freq_energy / 32.0, time_energy, 1e-9);
}

TEST(HarmonicReconstruct, RecoversPeriodicSignalOnPow2Length) {
  // A power-of-two-length periodic series is reconstructed near-exactly
  // when enough harmonics are kept.
  constexpr std::size_t n = 128;
  std::vector<double> series(n);
  for (std::size_t i = 0; i < n; ++i) {
    series[i] = 3.0 + 2.0 * std::cos(2.0 * std::numbers::pi * 8.0 * i / n);
  }
  const auto rec = harmonic_reconstruct(series, 2);
  ASSERT_EQ(rec.size(), n);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(rec[i], series[i], 1e-9);
}

TEST(HarmonicExtrapolate, PeriodicExtensionContinuesPattern) {
  constexpr std::size_t n = 128;
  constexpr std::size_t period = 16;
  std::vector<double> series(n);
  for (std::size_t i = 0; i < n; ++i) {
    series[i] = 1.0 + std::cos(2.0 * std::numbers::pi * static_cast<double>(i) / period);
  }
  const auto pred = harmonic_extrapolate(series, 3, 32);
  ASSERT_EQ(pred.size(), 32u);
  for (std::size_t h = 0; h < pred.size(); ++h) {
    const double expected =
        1.0 + std::cos(2.0 * std::numbers::pi * static_cast<double>(n + h) / period);
    EXPECT_NEAR(pred[h], expected, 0.05) << "h=" << h;
  }
}

TEST(HarmonicExtrapolate, ConstantSeriesPredictsConstant) {
  const std::vector<double> series(64, 4.0);
  const auto pred = harmonic_extrapolate(series, 4, 10);
  for (double p : pred) EXPECT_NEAR(p, 4.0, 1e-9);
}

TEST(Fft, PrevPow2) {
  EXPECT_EQ(prev_pow2(1), 1u);
  EXPECT_EQ(prev_pow2(2), 2u);
  EXPECT_EQ(prev_pow2(3), 2u);
  EXPECT_EQ(prev_pow2(64), 64u);
  EXPECT_EQ(prev_pow2(65), 64u);
  EXPECT_EQ(prev_pow2(1337), 1024u);
}

TEST(HarmonicExtrapolate, NonPow2LengthEqualsSuffixFit) {
  // The fix: a non-power-of-two series is fitted on its largest
  // power-of-two suffix instead of being zero-padded. The forecast must be
  // bit-identical to calling the function on that suffix directly.
  std::vector<double> series;
  for (int i = 0; i < 100; ++i) series.push_back(2.0 + std::sin(0.37 * i) + 0.05 * (i % 7));
  const std::vector<double> suffix(series.end() - 64, series.end());
  const auto from_full = harmonic_extrapolate(series, 5, 20);
  const auto from_suffix = harmonic_extrapolate(suffix, 5, 20);
  ASSERT_EQ(from_full.size(), from_suffix.size());
  for (std::size_t h = 0; h < from_full.size(); ++h) {
    EXPECT_DOUBLE_EQ(from_full[h], from_suffix[h]) << "h=" << h;
  }
}

TEST(HarmonicExtrapolate, NonPow2ConstantSeriesNoLongerCollapsesTowardZero) {
  // Regression for the padding bias: with a 100-sample constant series the
  // padded fit modeled 28 phantom zeros and forecast ~4.0 * 100/128 at
  // best (much worse off the DC bin); the suffix fit is exact.
  const std::vector<double> series(100, 4.0);
  const auto pred = harmonic_extrapolate(series, 4, 10);
  for (double p : pred) EXPECT_NEAR(p, 4.0, 1e-9);
}

TEST(HarmonicExtrapolate, NonPow2PeriodicSeriesContinuesPattern) {
  // 144-sample periodic series (period 16, so the 128-suffix holds full
  // cycles): the continuation must track the true pattern, which the padded
  // fit could not do at any non-power-of-two length.
  constexpr std::size_t n = 144;
  constexpr std::size_t period = 16;
  std::vector<double> series(n);
  for (std::size_t i = 0; i < n; ++i) {
    series[i] = 1.0 + std::cos(2.0 * std::numbers::pi * static_cast<double>(i) / period);
  }
  const auto pred = harmonic_extrapolate(series, 3, 32);
  ASSERT_EQ(pred.size(), 32u);
  for (std::size_t h = 0; h < pred.size(); ++h) {
    const double expected =
        1.0 + std::cos(2.0 * std::numbers::pi * static_cast<double>(n + h) / period);
    EXPECT_NEAR(pred[h], expected, 0.05) << "h=" << h;
  }
}

TEST(HarmonicExtrapolate, EmptyInputsAreSafe) {
  EXPECT_TRUE(harmonic_extrapolate({}, 3, 0).empty());
  const auto pred = harmonic_extrapolate({}, 3, 5);
  ASSERT_EQ(pred.size(), 5u);
  for (double p : pred) EXPECT_DOUBLE_EQ(p, 0.0);
}

TEST(HarmonicExtrapolate, ZeroHarmonicsGivesMeanOnly) {
  std::vector<double> series;
  for (int i = 0; i < 64; ++i) series.push_back(i % 2 == 0 ? 0.0 : 2.0);
  const auto pred = harmonic_extrapolate(series, 0, 8);
  for (double p : pred) EXPECT_NEAR(p, 1.0, 1e-9);  // just the DC level
}

TEST(Fft, MatchesReplicaBitwise) {
  // fft() builds its tables per call; HarmonicPlan::transform reuses one
  // plan for every smaller power-of-two size. Both must match the replica.
  const HarmonicPlan plan(1024, 0);
  for (std::size_t n = 1; n <= 1024; n <<= 1) {
    std::vector<std::complex<double>> input;
    for (std::size_t i = 0; i < n; ++i) {
      input.emplace_back(std::sin(0.37 * static_cast<double>(i)) + 0.01 * static_cast<double>(i),
                         std::cos(0.11 * static_cast<double>(i)));
    }
    for (const bool inverse : {false, true}) {
      std::vector<std::complex<double>> expected = input;
      replica::fft(expected, inverse);
      std::vector<std::complex<double>> actual = input;
      fft(actual, inverse);
      ASSERT_TRUE(bitwise_equal(expected, std::span<const std::complex<double>>(actual)))
          << "n=" << n << " inverse=" << inverse;
    }
    std::vector<std::complex<double>> expected = input;
    replica::fft(expected, false);
    std::vector<std::complex<double>> actual = input;
    plan.transform(actual);
    ASSERT_TRUE(bitwise_equal(expected, std::span<const std::complex<double>>(actual)))
        << "plan transform n=" << n;
  }
}

TEST(Fft, NonFiniteInputsMatchReplicaBitwise) {
  // Overflowing butterflies reach std::complex's infinity-recovery branch;
  // the spelled-out multiply must take it exactly when the operator does.
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::complex<double>> input{
      {1e308, -1e308}, {inf, 1.0}, {-1e308, 1e308}, {0.0, inf},
      {1e308, 1e308},  {2.0, -inf}, {inf, inf},     {-0.0, 0.0}};
  std::vector<std::complex<double>> expected = input;
  replica::fft(expected, false);
  std::vector<std::complex<double>> actual = input;
  fft(actual);
  EXPECT_TRUE(bitwise_equal(expected, std::span<const std::complex<double>>(actual)));
}

TEST(Fft, PlanRejectsBadSizes) {
  EXPECT_THROW(HarmonicPlan(0, 4), std::invalid_argument);
  EXPECT_THROW(HarmonicPlan(96, 4), std::invalid_argument);
  const HarmonicPlan plan(8, 0);
  std::vector<std::complex<double>> too_long(16);
  EXPECT_THROW(plan.transform(too_long), std::invalid_argument);
}

TEST(HarmonicEvaluate, NanKeyAmongFiniteOnesTakesTheFullSort) {
  // No transform of a series mixes NaN and finite magnitudes (a NaN or inf
  // input reaches every bin), but evaluate() takes any spectrum. With keys
  // 5, 3, NaN, 4, ... std::sort's insertion pass leaves 4 behind the NaN,
  // so its top two are 5, 3, not the 5, 4 a selection would pick. At 32
  // points std::sort is that insertion pass alone, which tolerates NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::complex<double>> coeffs(32, {0.0, 0.0});
  const double keys[] = {5.0, 3.0, nan, 4.0};
  for (std::size_t j = 1; j <= 16; ++j) {
    coeffs[j] = {j <= 4 ? keys[j - 1] : 0.01 * static_cast<double>(j), 0.25};
    coeffs[32 - j] = std::conj(coeffs[j]);
  }
  HarmonicForecaster forecaster(std::make_shared<const HarmonicPlan>(32, 0));
  std::vector<double> out(8);
  for (std::size_t harmonics = 0; harmonics <= 17; ++harmonics) {
    const std::vector<std::size_t> bins = replica::kept_bins(coeffs, harmonics);
    std::vector<double> expected(out.size());
    for (std::size_t h = 0; h < out.size(); ++h) {
      expected[h] = replica::evaluate_model(coeffs, bins, 32, static_cast<double>(32 + h));
    }
    forecaster.evaluate(coeffs, harmonics, 32, out);
    ASSERT_TRUE(bitwise_equal(expected, std::span<const double>(out)))
        << "harmonics=" << harmonics;
  }
}

class HarmonicBitIdentity : public ::testing::TestWithParam<SeriesKind> {};

TEST_P(HarmonicBitIdentity, ExtrapolateMatchesReplicaAtEveryLength) {
  // Lengths 1..600 put every fit size 1..512 through three forecasters: the
  // one-shot free function (untabled), a plan of exactly the fit size (the
  // tabled basis) and one 512-plan shared by every length, as IceBreaker
  // holds it (sub-size transforms, basis tabled only at 512).
  constexpr std::size_t kMaxLength = 600;
  const std::vector<double> full = make_series(GetParam(), kMaxLength);
  for (const std::size_t horizon : {std::size_t{1}, std::size_t{10}, std::size_t{32}}) {
    HarmonicForecaster shared(std::make_shared<const HarmonicPlan>(512, horizon));
    std::map<std::size_t, HarmonicForecaster> exact;
    std::vector<double> out(horizon);
    for (std::size_t length = 1; length <= kMaxLength; ++length) {
      const std::span<const double> series(full.data(), length);
      const std::size_t n_fit = prev_pow2(length);
      HarmonicForecaster& own =
          exact.try_emplace(n_fit, std::make_shared<const HarmonicPlan>(n_fit, horizon))
              .first->second;
      // n_fit/2 - 1 is the most harmonics the norm screen runs with; from
      // n_fit/2 up every bin is kept and ranked.
      for (const std::size_t harmonics : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                                          n_fit / 2 - (n_fit > 1), n_fit / 2, std::size_t{1000}}) {
        const std::vector<double> expected =
            replica::harmonic_extrapolate(series, harmonics, horizon);
        const auto where = [&] {
          return "length=" + std::to_string(length) + " harmonics=" + std::to_string(harmonics) +
                 " horizon=" + std::to_string(horizon);
        };
        ASSERT_TRUE(bitwise_equal(
            expected, std::span<const double>(harmonic_extrapolate(series, harmonics, horizon))))
            << "free function " << where();
        own.extrapolate(series, harmonics, out);
        ASSERT_TRUE(bitwise_equal(expected, std::span<const double>(out)))
            << "exact plan " << where();
        shared.extrapolate(series, harmonics, out);
        ASSERT_TRUE(bitwise_equal(expected, std::span<const double>(out)))
            << "shared plan " << where();
      }
    }
  }
}

TEST_P(HarmonicBitIdentity, ReconstructMatchesReplica) {
  const std::vector<double> full = make_series(GetParam(), 600);
  for (std::size_t length = 1; length <= full.size(); length += 13) {
    const std::span<const double> series(full.data(), length);
    for (const std::size_t harmonics :
         {std::size_t{0}, std::size_t{1}, std::size_t{8}, std::size_t{1000}}) {
      ASSERT_TRUE(bitwise_equal(replica::harmonic_reconstruct(series, harmonics),
                                std::span<const double>(harmonic_reconstruct(series, harmonics))))
          << "length=" << length << " harmonics=" << harmonics;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SeriesKinds, HarmonicBitIdentity,
                         ::testing::Values(SeriesKind::kZero, SeriesKind::kConstant,
                                           SeriesKind::kSparsePoisson,
                                           SeriesKind::kDenseDiurnal, SeriesKind::kSpike,
                                           SeriesKind::kPeriodic, SeriesKind::kHuge,
                                           SeriesKind::kNonFinite, SeriesKind::kTiny),
                         kind_name);

}  // namespace
}  // namespace pulse::predict
