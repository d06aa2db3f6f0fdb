#pragma once
// Radix-2 FFT and harmonic extrapolation — the forecasting substrate of the
// IceBreaker baseline ("a fast Fourier-based method to forecast
// inter-arrival times of diverse serverless functions").

#include <complex>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace pulse::predict {

/// In-place iterative radix-2 Cooley-Tukey FFT. data.size() must be a power
/// of two (throws std::invalid_argument otherwise). `inverse` applies the
/// 1/N-scaled inverse transform.
void fft(std::vector<std::complex<double>>& data, bool inverse = false);

/// Next power of two >= n (minimum 1).
[[nodiscard]] std::size_t next_pow2(std::size_t n) noexcept;

/// Largest power of two <= n (requires n >= 1).
[[nodiscard]] std::size_t prev_pow2(std::size_t n) noexcept;

/// Immutable tables built once per (n, horizon): the bit reversal and
/// twiddles of forward transforms of every power of two up to n (a power of
/// two, else std::invalid_argument), and the basis e^{2*pi*i*j*(n+h)/n} for
/// every bin j <= n/2 and step h < horizon. Each entry is the expression an
/// untabled fit evaluates, so tabled forecasts are bit-identical.
class HarmonicPlan {
 public:
  HarmonicPlan(std::size_t n, std::size_t horizon);

  [[nodiscard]] std::size_t n() const noexcept { return bit_reverse_.size(); }
  [[nodiscard]] std::size_t horizon() const noexcept { return horizon_; }

 private:
  friend class HarmonicForecaster;
  std::size_t horizon_;
  std::vector<std::size_t> bit_reverse_;        // over log2(n) bits
  std::vector<std::complex<double>> twiddles_;  // stage `len` at [len/2 - 1, len - 1)
  std::vector<std::complex<double>> basis_;     // step h, bin j at [h * (n/2 + 1) + j]
};

/// A shared plan plus the scratch of one fit; every method is
/// allocation-free. The model of an n-point real window at index t is
///   (X_0 + sum_j c_j Re(X_j e^{2*pi*i*j*t/n})) / n
/// over the `harmonics` bins j in 1..n/2 of largest std::norm(X_j) (ties
/// to the lower bin, NaN norms last), c_j = 2 but 1 for the Nyquist bin
/// n/2: DC plus conjugate pairs, so the model is real.
class HarmonicForecaster {
 public:
  HarmonicForecaster() = default;  // empty until a plan is assigned
  explicit HarmonicForecaster(std::shared_ptr<const HarmonicPlan> plan);

  [[nodiscard]] const std::shared_ptr<const HarmonicPlan>& plan() const noexcept { return plan_; }

  /// harmonic_extrapolate(series, harmonics, out.size()), written to out.
  void extrapolate(std::span<const double> series, std::size_t harmonics, std::span<double> out);

  /// Fits `window` (a power of two no longer than plan()->n(), else
  /// std::invalid_argument) and writes its model at indices first,
  /// first+1, ... to out. The transform packs the window as n/2 complex
  /// points, runs their FFT and splits it into X_0 .. X_{n/2}.
  void fit(std::span<const double> window, std::size_t harmonics, std::size_t first,
           std::span<double> out);

  /// Writes the model of `spectrum`, the bins X_0 .. X_{n/2} of a real
  /// n-point transform (X_0 alone when n = 1), at indices first, first+1,
  /// ... to out. Only X_0's real part is read.
  void evaluate(std::span<const std::complex<double>> spectrum, std::size_t harmonics,
                std::size_t first, std::span<double> out);

 private:
  /// Leaves in ranked_[0, keep) the `keep` model bins of spectrum, in rank
  /// order, by top-k insertion of (norm, j) keys.
  void rank(std::span<const std::complex<double>> spectrum, std::size_t keep);

  std::shared_ptr<const HarmonicPlan> plan_;
  std::vector<std::complex<double>> spectrum_;          // X_0 .. X_{n/2}
  std::vector<std::pair<double, std::size_t>> ranked_;  // (rank key, j)
};

/// Fits the largest power-of-two *suffix* of `series` and evaluates its
/// harmonic model at the `horizon` indices past the suffix — the FFT-based
/// seasonal extrapolation IceBreaker builds on. Zero-padding instead would
/// bias every kept harmonic toward the padding zeros, collapsing forecasts
/// toward zero at non-power-of-two lengths. One-shot; repeated fits should
/// keep a HarmonicForecaster whose plan tabulates the horizon.
[[nodiscard]] std::vector<double> harmonic_extrapolate(std::span<const double> series,
                                                       std::size_t harmonics,
                                                       std::size_t horizon);

/// Smoothed reconstruction of the input itself from the top harmonics of
/// its zero-padded power-of-two transform (indices [0, series.size()));
/// useful for diagnostics and tests.
[[nodiscard]] std::vector<double> harmonic_reconstruct(std::span<const double> series,
                                                       std::size_t harmonics);

}  // namespace pulse::predict
