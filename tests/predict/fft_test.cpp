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

#include "predict/divergence.hpp"
#include "util/rng.hpp"

namespace pulse::predict {
namespace {

// Replica of fft() as first written, kept verbatim: every call runs the
// twiddle recurrence and multiplies with std::complex's operator. The
// table-driven fft() must reproduce it bit for bit.
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

}  // namespace replica

// ---------------------------------------------------------------------------
// Plain reference of the harmonic model, untabled: every call runs the
// twiddle recurrence and the bit reversal, ranks all bins with std::sort
// under the model's order, and evaluates cos/sin per kept bin and index.
// The plan, its sub-size transforms and the forecaster's top-k ranking must
// reproduce it bit for bit.
// ---------------------------------------------------------------------------
namespace reference {

/// (ac - bd, ad + bc): the model's product, without std::complex's
/// infinity recovery.
std::complex<double> mul(std::complex<double> a, std::complex<double> b) {
  return {a.real() * b.real() - a.imag() * b.imag(), a.real() * b.imag() + a.imag() * b.real()};
}

/// X_0 .. X_{n/2} of the real window (n = window.size(), a power of two):
/// the n/2-point FFT of z_k = x_{2k} + i x_{2k+1}, then the split into the
/// even and odd samples' transforms E_k and O_k.
std::vector<std::complex<double>> spectrum(std::span<const double> window) {
  const std::size_t n = window.size();
  if (n == 1) return {window[0]};
  const std::size_t m = n / 2;
  std::vector<std::complex<double>> z(m);
  for (std::size_t k = 0; k < m; ++k) z[k] = {window[2 * k], window[2 * k + 1]};
  for (std::size_t i = 1, j = 0; i < m; ++i) {
    std::size_t bit = m >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(z[i], z[j]);
  }
  for (std::size_t len = 2; len <= m; len <<= 1) {
    const double angle = -2.0 * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wn(std::cos(angle), std::sin(angle));
    for (std::size_t i = 0; i < m; i += len) {
      std::complex<double> w(1.0, 0.0);
      for (std::size_t k = 0; k < len / 2; ++k) {
        const std::complex<double> u = z[i + k];
        const std::complex<double> v = mul(z[i + k + len / 2], w);
        z[i + k] = u + v;
        z[i + k + len / 2] = u - v;
        w *= wn;
      }
    }
  }

  std::vector<std::complex<double>> x(m + 1);
  x[0] = z[0].real() + z[0].imag();
  x[m] = z[0].real() - z[0].imag();
  const double angle = -2.0 * std::numbers::pi / static_cast<double>(n);
  const std::complex<double> wn(std::cos(angle), std::sin(angle));
  std::complex<double> w(1.0, 0.0);
  for (std::size_t k = 1; 2 * k <= m; ++k) {
    w *= wn;  // W^k
    const std::complex<double> a = z[k];
    const std::complex<double> b = z[m - k];
    const std::complex<double> even{0.5 * (a.real() + b.real()), 0.5 * (a.imag() - b.imag())};
    const std::complex<double> odd{0.5 * (a.imag() + b.imag()), 0.5 * (b.real() - a.real())};
    const std::complex<double> t = mul(odd, w);
    x[m - k] = {even.real() - t.real(), t.imag() - even.imag()};  // conj(E_k - W^k O_k)
    x[k] = even + t;
  }
  return x;
}

/// Bins 1..n/2 in the model's order: descending std::norm, ties to the
/// lower bin, NaN norms last.
std::vector<std::size_t> ranked_bins(const std::vector<std::complex<double>>& x) {
  std::vector<std::size_t> bins;
  for (std::size_t j = 1; j < x.size(); ++j) bins.push_back(j);
  std::sort(bins.begin(), bins.end(), [&](std::size_t a, std::size_t b) {
    const double na = std::norm(x[a]);
    const double nb = std::norm(x[b]);
    if (std::isnan(na) != std::isnan(nb)) return std::isnan(nb);
    if (!std::isnan(na) && na != nb) return na > nb;
    return a < b;
  });
  return bins;
}

/// The model of x over its first `keep` ranked bins at indices first ..
/// first+count-1.
std::vector<double> model(const std::vector<std::complex<double>>& x,
                          const std::vector<std::size_t>& ranked, std::size_t keep,
                          std::size_t first, std::size_t count) {
  const std::size_t m = x.size() - 1;
  const double n = static_cast<double>(std::max<std::size_t>(2 * m, 1));
  std::vector<double> out(count);
  for (std::size_t h = 0; h < count; ++h) {
    double acc = x[0].real();
    for (std::size_t k = 0; k < keep; ++k) {
      const std::size_t j = ranked[k];
      const double angle =
          2.0 * std::numbers::pi * static_cast<double>(j) * static_cast<double>(first + h) / n;
      const double term = x[j].real() * std::cos(angle) - x[j].imag() * std::sin(angle);
      acc += j == m ? term : 2.0 * term;
    }
    out[h] = acc / n;
  }
  return out;
}

}  // namespace reference

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

// The last five shapes aim at the model's edges: a lone spike has bins of
// equal magnitude (rounding breaks the ties); a spike train whose period
// divides the fit size has exactly tied and exactly zero bins; counts of
// 2^1000 overflow every norm to +inf (all tie); an inf and a NaN entry
// give NaN keys; counts near 2^-500 put the norms near the bottom of the
// exponent range.
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
  // fft() builds its tables per call and runs the spelled-out product.
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
  HarmonicForecaster forecaster(std::make_shared<const HarmonicPlan>(8, 0));
  std::vector<double> out(4);
  EXPECT_THROW(forecaster.fit(std::vector<double>(16, 1.0), 2, 16, out), std::invalid_argument);
  EXPECT_THROW(forecaster.fit(std::vector<double>(6, 1.0), 2, 6, out), std::invalid_argument);
  EXPECT_THROW(forecaster.evaluate(std::vector<std::complex<double>>(9), 2, 16, out),
               std::invalid_argument);  // a 16-point spectrum
  EXPECT_THROW(forecaster.evaluate(std::vector<std::complex<double>>(4), 2, 6, out),
               std::invalid_argument);  // n = 6
  EXPECT_THROW(forecaster.evaluate({}, 2, 0, out), std::invalid_argument);
  EXPECT_THROW(forecaster.extrapolate(std::vector<double>(20, 1.0), 2, out),
               std::invalid_argument);  // a 16-point suffix
}

TEST(HarmonicEvaluate, RanksByNormTiesToLowerBinNanLast) {
  // A 32-point spectrum whose order exercises every rule: norms 49 (bin
  // 1) and 36 (bin 2), the NaN of bin 3 (last), a three-way tie at 25
  // (bins 4, 7 and 11, which arrive when the top three are already full:
  // lower bin first), 4 at the Nyquist bin 16, then the other bins by
  // falling j (norms rise with j). Each prefix length picks a different
  // set, and only the full one reaches the NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<std::complex<double>> spectrum(17);
  for (std::size_t j = 1; j < 16; ++j) spectrum[j] = {0.01 * static_cast<double>(j), 0.25};
  spectrum[0] = {1.0, 0.0};
  spectrum[1] = {-7.0, 0.0};
  spectrum[2] = {6.0, 0.0};
  spectrum[3] = {nan, 0.25};
  spectrum[4] = {3.0, 4.0};
  spectrum[7] = {4.0, -3.0};
  spectrum[11] = {0.0, 5.0};
  spectrum[16] = {2.0, 0.0};
  const std::vector<std::size_t> order{1, 2, 4, 7, 11, 16, 15, 14, 13, 12, 10, 9, 8, 6, 5, 3};
  ASSERT_EQ(reference::ranked_bins(spectrum), order);

  HarmonicForecaster forecaster(std::make_shared<const HarmonicPlan>(32, 8));
  std::vector<double> out(8);
  for (const std::size_t first : {std::size_t{32}, std::size_t{0}}) {  // tabled, untabled
    for (std::size_t harmonics = 0; harmonics <= 17; ++harmonics) {
      const std::size_t keep = std::min<std::size_t>(harmonics, 16);
      const std::vector<double> expected = reference::model(spectrum, order, keep, first, 8);
      forecaster.evaluate(spectrum, harmonics, first, out);
      ASSERT_TRUE(bitwise_equal(expected, std::span<const double>(out)))
          << "first=" << first << " harmonics=" << harmonics;
      EXPECT_EQ(std::ranges::all_of(out, [](double v) { return std::isfinite(v); }), keep < 16)
          << "first=" << first << " harmonics=" << harmonics;
    }
  }
}

TEST(HarmonicEvaluate, BoundFilteredRankMatchesFullSort) {
  // The rank drops every bin below the smallest of `keep` group maxima
  // before its top-k insertion. Quantized parts put many exact ties on
  // that bound (a bin equal to it must survive for the tie rule), NaN and
  // +-inf parts give NaN and +inf norms, and an all-zero spectrum ties every
  // bin. keep takes values that do and do not divide m, up to m itself.
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  constexpr std::size_t kCount = 4;
  HarmonicForecaster forecaster(std::make_shared<const HarmonicPlan>(512, kCount));
  util::Pcg32 rng(39);
  std::vector<double> out(kCount);
  for (std::size_t m = 1; m <= 256; m <<= 1) {
    for (std::size_t trial = 0; trial < 32; ++trial) {
      // Shapes by trial % 4: parts in {-2..2}; parts in {-8, -7.5, ..,
      // 8}; the same with one part in eight NaN, inf or -inf; all zero.
      const std::size_t shape = trial % 4;
      const auto part = [&] {
        if (shape == 0) return static_cast<double>(rng.bounded(5)) - 2.0;
        if (shape == 2 && rng.bounded(8) == 0) {
          const double special[] = {nan, inf, -inf};
          return special[rng.bounded(3)];
        }
        return 0.5 * static_cast<double>(rng.bounded(33)) - 8.0;
      };
      std::vector<std::complex<double>> x(m + 1);
      if (shape != 3) {
        for (auto& bin : x) bin = {part(), part()};
      }
      const std::vector<std::size_t> ranked = reference::ranked_bins(x);
      for (const std::size_t keep : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                     std::size_t{7}, std::size_t{8}, m - 1, m}) {
        if (keep == 0 || keep > m) continue;
        for (const std::size_t first : {2 * m, std::size_t{0}}) {  // tabled, untabled
          const std::vector<double> expected = reference::model(x, ranked, keep, first, kCount);
          forecaster.evaluate(x, keep, first, out);
          ASSERT_TRUE(bitwise_equal(expected, std::span<const double>(out)))
              << "m=" << m << " trial=" << trial << " keep=" << keep << " first=" << first;
        }
      }
    }
  }
}

TEST(HarmonicForecaster, NoPlanThrows) {
  // A default-constructed forecaster has no tables: fitting or evaluating
  // throws std::logic_error (not its std::invalid_argument subclass, which
  // reports a bad input), and an empty series still forecasts zeros.
  HarmonicForecaster forecaster;
  ASSERT_EQ(forecaster.plan(), nullptr);
  std::vector<double> out(4, 1.0);
  const auto throws_no_plan = [](const auto& call) {
    try {
      call();
    } catch (const std::invalid_argument&) {
      return false;
    } catch (const std::logic_error&) {
      return true;
    }
    return false;
  };
  EXPECT_TRUE(throws_no_plan([&] { forecaster.fit(std::vector<double>(8, 1.0), 2, 8, out); }));
  EXPECT_TRUE(throws_no_plan(
      [&] { forecaster.evaluate(std::vector<std::complex<double>>(5), 2, 8, out); }));
  EXPECT_TRUE(throws_no_plan([&] { forecaster.extrapolate(std::vector<double>(5, 1.0), 2, out); }));
  forecaster.extrapolate({}, 2, out);
  for (const double v : out) EXPECT_EQ(v, 0.0);
}

TEST(HarmonicExtrapolate, NonFiniteWindowGivesNonFiniteForecast) {
  // The guard relies on it: a window holding an inf or a NaN poisons X_0,
  // so every forecast value is non-finite and ensure_finite throws. The
  // kNonFinite series has them at indices 200 and 450.
  const std::vector<double> full = make_series(SeriesKind::kNonFinite, 600);
  HarmonicForecaster forecaster(std::make_shared<const HarmonicPlan>(512, 10));
  std::vector<double> out(10);
  for (std::size_t length = 1; length <= full.size(); ++length) {
    const std::size_t start = length - prev_pow2(length);
    const bool poisoned = (start <= 200 && 200 < length) || (start <= 450 && 450 < length);
    for (const std::size_t harmonics :
         {std::size_t{0}, std::size_t{1}, std::size_t{8}, std::size_t{1000}}) {
      forecaster.extrapolate(std::span(full.data(), length), harmonics, out);
      for (const double v : out) {
        ASSERT_EQ(std::isfinite(v), !poisoned) << "length=" << length << " harmonics=" << harmonics;
      }
      if (poisoned) {
        EXPECT_THROW(ensure_finite(out, "test"), PredictorDivergence) << "length=" << length;
      }
    }
  }
}

class HarmonicBitIdentity : public ::testing::TestWithParam<SeriesKind> {};

TEST_P(HarmonicBitIdentity, ExtrapolateMatchesReplicaAtEveryLength) {
  // Lengths 1..600 put every fit size 1..512 through three forecasters: the
  // one-shot free function (untabled), a plan of exactly the fit size (the
  // tabled basis) and one 512-plan shared by every length, as IceBreaker
  // holds it (sub-size transforms, basis tabled at every fit size). A
  // forecast step does not depend on the horizon, so the reference
  // transforms and ranks each length once and evaluates each harmonic count
  // once, at the longest horizon.
  constexpr std::size_t kMaxLength = 600;
  constexpr std::size_t kHorizons[] = {1, 10, 32};
  const std::vector<double> full = make_series(GetParam(), kMaxLength);
  std::vector<HarmonicForecaster> shared;
  std::vector<HarmonicForecaster> exact;  // rebuilt at each new fit size
  for (const std::size_t horizon : kHorizons) {
    shared.emplace_back(std::make_shared<const HarmonicPlan>(512, horizon));
    exact.emplace_back();
  }
  std::vector<double> out;
  for (std::size_t length = 1; length <= kMaxLength; ++length) {
    const std::span<const double> series(full.data(), length);
    const std::size_t n_fit = prev_pow2(length);
    if (length == n_fit) {
      for (std::size_t i = 0; i < std::size(kHorizons); ++i) {
        exact[i] = HarmonicForecaster(std::make_shared<const HarmonicPlan>(n_fit, kHorizons[i]));
      }
    }
    const std::vector<std::complex<double>> x = reference::spectrum(series.last(n_fit));
    const std::vector<std::size_t> ranked = reference::ranked_bins(x);
    std::map<std::size_t, std::vector<double>> by_keep;  // harmonics >= n_fit/2 keep every bin
    // n_fit/2 - 1 is the most harmonics that leave a bin out; from n_fit/2
    // up every bin is kept.
    for (const std::size_t harmonics : {std::size_t{0}, std::size_t{1}, std::size_t{8},
                                        n_fit / 2 - (n_fit > 1), n_fit / 2, std::size_t{1000}}) {
      const std::size_t keep = std::min(harmonics, n_fit / 2);
      auto [it, fresh] = by_keep.try_emplace(keep);
      if (fresh) it->second = reference::model(x, ranked, keep, n_fit, kHorizons[2]);
      const std::vector<double>& longest = it->second;
      for (std::size_t i = 0; i < std::size(kHorizons); ++i) {
        const std::size_t horizon = kHorizons[i];
        const std::vector<double> expected(longest.begin(), longest.begin() + horizon);
        const auto where = [&] {
          return "length=" + std::to_string(length) + " harmonics=" + std::to_string(harmonics) +
                 " horizon=" + std::to_string(horizon);
        };
        ASSERT_TRUE(bitwise_equal(
            expected, std::span<const double>(harmonic_extrapolate(series, harmonics, horizon))))
            << "free function " << where();
        out.resize(horizon);
        exact[i].extrapolate(series, harmonics, out);
        ASSERT_TRUE(bitwise_equal(expected, std::span<const double>(out)))
            << "exact plan " << where();
        shared[i].extrapolate(series, harmonics, out);
        ASSERT_TRUE(bitwise_equal(expected, std::span<const double>(out)))
            << "shared plan " << where();
      }
    }
  }
}

TEST_P(HarmonicBitIdentity, ReconstructMatchesReplica) {
  const std::vector<double> full = make_series(GetParam(), 600);
  for (std::size_t length = 1; length <= full.size(); length += 13) {
    std::vector<double> padded(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(length));
    padded.resize(next_pow2(length), 0.0);
    const std::vector<std::complex<double>> x = reference::spectrum(padded);
    const std::vector<std::size_t> ranked = reference::ranked_bins(x);
    for (const std::size_t harmonics :
         {std::size_t{0}, std::size_t{1}, std::size_t{8}, std::size_t{1000}}) {
      const std::vector<double> expected =
          reference::model(x, ranked, std::min(harmonics, padded.size() / 2), 0, length);
      ASSERT_TRUE(bitwise_equal(expected, std::span<const double>(harmonic_reconstruct(
                                              std::span(full.data(), length), harmonics))))
          << "length=" << length << " harmonics=" << harmonics;
    }
  }
}

// Accuracy against the textbook transform: a naive O(n^2) DFT in long
// double, angles reduced exactly as 2*pi*((j*t) mod n)/n, ranked by its own
// norms under the same rule, evaluated in long double. The bounds were fixed
// from a worst-case error estimate before the first run: the recurrence
// twiddles err by up to about 3*k ulp at power k (< 1e-13 for k < 256), each
// of at most 9 stages adds that times the L1 norm, and a basis angle of up to
// 2*pi*256*543/512 rad errs by about 6e-13.
class HarmonicAccuracy : public ::testing::TestWithParam<SeriesKind> {};

TEST_P(HarmonicAccuracy, ModelAgreesWithNaiveDft) {
  constexpr std::size_t kHorizon = 32;
  const std::vector<double> full = make_series(GetParam(), 600);
  std::size_t compared = 0;
  for (const std::size_t length : {1, 2, 3, 4, 7, 8, 16, 31, 64, 100, 128, 255, 256, 300, 512, 600}) {
    const std::size_t n = prev_pow2(length);
    const std::size_t m = n / 2;
    const std::span<const double> window = std::span(full.data(), length).last(n);
    long double l1 = 0.0L;
    for (const double v : window) l1 += std::fabs(static_cast<long double>(v));
    const double scale = static_cast<double>(l1);

    std::vector<long double> cos_table(n);
    std::vector<long double> sin_table(n);
    for (std::size_t r = 0; r < n; ++r) {
      const long double angle = 2.0L * std::numbers::pi_v<long double> *
                                static_cast<long double>(r) / static_cast<long double>(n);
      cos_table[r] = std::cos(angle);
      sin_table[r] = std::sin(angle);
    }
    std::vector<std::complex<long double>> naive(m + 1);
    for (std::size_t j = 0; j <= m; ++j) {
      for (std::size_t t = 0; t < n; ++t) {
        const std::size_t r = j * t % n;
        naive[j] += std::complex<long double>(window[t] * cos_table[r], -window[t] * sin_table[r]);
      }
    }

    // The transform itself: every bin within 4e-12 of the L1 norm.
    const std::vector<std::complex<double>> x = reference::spectrum(window);
    for (std::size_t j = 0; j <= m; ++j) {
      const long double err = std::abs(std::complex<long double>(x[j].real(), x[j].imag()) - naive[j]);
      ASSERT_LE(static_cast<double>(err), 4e-12 * scale) << "length=" << length << " bin=" << j;
    }

    std::vector<std::size_t> order;
    for (std::size_t j = 1; j <= m; ++j) order.push_back(j);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return std::norm(naive[a]) > std::norm(naive[b]);
    });
    for (const std::size_t harmonics : {std::size_t{0}, std::size_t{1}, std::size_t{8}, m}) {
      const std::size_t keep = std::min(harmonics, m);
      if (keep > 0 && keep < m) {
        // Counts of 2^1000 overflow the model's norms, which then all tie;
        // a near-tie at the cut leaves the kept set to rounding.
        if (GetParam() == SeriesKind::kHuge) continue;
        if (std::abs(naive[order[keep - 1]]) - std::abs(naive[order[keep]]) <= 1e-10L * l1) {
          continue;
        }
      }
      const std::vector<double> forecast = harmonic_extrapolate(window, harmonics, kHorizon);
      for (std::size_t h = 0; h < kHorizon; ++h) {
        long double expected = naive[0].real();
        for (std::size_t k = 0; k < keep; ++k) {
          const std::size_t j = order[k];
          const std::size_t r = j * (n + h) % n;
          const long double term = naive[j].real() * cos_table[r] - naive[j].imag() * sin_table[r];
          expected += j == m ? term : 2.0L * term;
        }
        expected /= static_cast<long double>(n);
        ASSERT_LE(std::fabs(forecast[h] - static_cast<double>(expected)),
                  1e-11 * static_cast<double>(2 * keep + 1) * scale / static_cast<double>(n))
            << "length=" << length << " harmonics=" << harmonics << " h=" << h;
      }
      ++compared;
    }
  }
  EXPECT_GT(compared, 16u);  // the skips leave most cases in
}

INSTANTIATE_TEST_SUITE_P(FiniteKinds, HarmonicAccuracy,
                         ::testing::Values(SeriesKind::kZero, SeriesKind::kConstant,
                                           SeriesKind::kSparsePoisson,
                                           SeriesKind::kDenseDiurnal, SeriesKind::kSpike,
                                           SeriesKind::kPeriodic, SeriesKind::kHuge,
                                           SeriesKind::kTiny),
                         kind_name);

INSTANTIATE_TEST_SUITE_P(SeriesKinds, HarmonicBitIdentity,
                         ::testing::Values(SeriesKind::kZero, SeriesKind::kConstant,
                                           SeriesKind::kSparsePoisson,
                                           SeriesKind::kDenseDiurnal, SeriesKind::kSpike,
                                           SeriesKind::kPeriodic, SeriesKind::kHuge,
                                           SeriesKind::kNonFinite, SeriesKind::kTiny),
                         kind_name);

}  // namespace
}  // namespace pulse::predict
