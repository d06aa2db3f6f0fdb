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
/// every bin j < n and step h < horizon. Each entry is the expression an
/// untabled fit evaluates, so tabled forecasts are bit-identical.
class HarmonicPlan {
 public:
  HarmonicPlan(std::size_t n, std::size_t horizon);

  [[nodiscard]] std::size_t n() const noexcept { return bit_reverse_.size(); }
  [[nodiscard]] std::size_t horizon() const noexcept { return horizon_; }

  /// In-place forward FFT, bit-identical to fft(data); data.size() must be
  /// a power of two no larger than n().
  void transform(std::span<std::complex<double>> data) const;

 private:
  friend class HarmonicForecaster;
  std::size_t horizon_;
  std::vector<std::size_t> bit_reverse_;        // over log2(n) bits
  std::vector<std::complex<double>> twiddles_;  // stage `len` at [len/2 - 1, len - 1)
  std::vector<std::complex<double>> basis_;     // step h, bin j at [h * n + j]
};

/// A shared plan plus the scratch of one fit; both methods are
/// allocation-free. The model is DC plus the `harmonics` largest-magnitude
/// positive-frequency pairs of a transform of at most plan()->n() points.
class HarmonicForecaster {
 public:
  HarmonicForecaster() = default;  // empty until a plan is assigned
  explicit HarmonicForecaster(std::shared_ptr<const HarmonicPlan> plan);

  [[nodiscard]] const std::shared_ptr<const HarmonicPlan>& plan() const noexcept { return plan_; }

  /// harmonic_extrapolate(series, harmonics, out.size()), written to out.
  void extrapolate(std::span<const double> series, std::size_t harmonics, std::span<double> out);

  /// Writes the model of `coeffs` (an n-point forward transform) at indices
  /// first, first+1, ... to out.
  void evaluate(std::span<const std::complex<double>> coeffs, std::size_t harmonics,
                std::size_t first, std::span<double> out);

 private:
  /// Leaves in ranked_[0, keep) (0 < keep <= n/2) the prefix that sorting
  /// every (|X_j|, j), j = 1..n/2, by descending |X_j| with std::sort gives:
  /// by top-k selection over a norm screen when that prefix is unique, else
  /// by that sort.
  void rank(std::span<const std::complex<double>> coeffs, std::size_t keep);

  std::shared_ptr<const HarmonicPlan> plan_;
  std::vector<std::complex<double>> coeffs_;
  std::vector<std::pair<double, std::size_t>> ranked_;  // (|X_j|, j), or (|X_j|^2, j)
  std::vector<double> norms_;                           // |X_j|^2 at [j - 1]
  std::vector<std::size_t> bins_;                       // kept: DC + pairs
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

/// Smoothed reconstruction of the input itself from the top harmonics
/// (indices [0, series.size())); useful for diagnostics and tests.
[[nodiscard]] std::vector<double> harmonic_reconstruct(std::span<const double> series,
                                                       std::size_t harmonics);

}  // namespace pulse::predict
