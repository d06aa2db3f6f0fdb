#include "predict/fft.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

namespace pulse::predict {

namespace {

/// e^{2*pi*i*j*index/n}: the model's basis function for bin j at `index`.
std::complex<double> basis_at(std::size_t j, std::size_t index, std::size_t n) {
  const double angle = 2.0 * std::numbers::pi * static_cast<double>(j) *
                       static_cast<double>(index) / static_cast<double>(n);
  return {std::cos(angle), std::sin(angle)};
}

std::vector<std::size_t> bit_reverse_table(std::size_t n) {
  std::vector<std::size_t> rev(n, 0);
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    rev[i] = j ^= bit;
  }
  return rev;
}

/// Stage `len` holds wn^k for k < len/2, from the `w *= wn` recurrence an
/// untabled iterative transform runs per butterfly group.
std::vector<std::complex<double>> twiddle_table(std::size_t n, bool inverse) {
  std::vector<std::complex<double>> table;
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const double angle = (inverse ? 2.0 : -2.0) * std::numbers::pi / static_cast<double>(len);
    const std::complex<double> wn(std::cos(angle), std::sin(angle));
    std::complex<double> w(1.0, 0.0);
    for (std::size_t k = 0; k < len / 2; ++k, w *= wn) table.push_back(w);
  }
  return table;
}

/// Radix-2 transform of `data`, a power of two no larger than the tables
/// (whose first stages are the smaller transform's). The twiddle product is
/// std::complex's inline expansion, (ac - bd, ad + bc), spelled out to stay
/// in registers; kChecked adds the operator's infinity recovery when both
/// parts are NaN, so fft() matches std::complex arithmetic. The harmonic
/// model's transform is the plain expansion.
template <bool kChecked>
void butterflies(std::span<std::complex<double>> data, std::span<const std::size_t> bit_reverse,
                 std::span<const std::complex<double>> twiddles) {
  const std::size_t n = data.size();
  const int shift = std::countr_zero(bit_reverse.size()) - std::countr_zero(n);
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t j = bit_reverse[i] >> shift;
    if (i < j) std::swap(data[i], data[j]);
  }
  for (std::size_t half = 1; half < n; half <<= 1) {
    for (std::size_t i = 0; i < n; i += 2 * half) {
      for (std::size_t k = 0; k < half; ++k) {
        std::complex<double>& u = data[i + k];
        std::complex<double>& x = data[i + k + half];
        const std::complex<double>& w = twiddles[half - 1 + k];
        double vr = x.real() * w.real() - x.imag() * w.imag();
        double vi = x.real() * w.imag() + x.imag() * w.real();
        if constexpr (kChecked) {
          if (std::isnan(vr) && std::isnan(vi)) [[unlikely]] {
            const std::complex<double> v = x * w;
            vr = v.real();
            vi = v.imag();
          }
        }
        const double ur = u.real();
        const double ui = u.imag();
        x.real(ur - vr);
        x.imag(ui - vi);
        u.real(ur + vr);
        u.imag(ui + vi);
      }
    }
  }
}

/// Turns Z_0 .. Z_{m-1}, the m-point transform of z_k = x_{2k} + i x_{2k+1},
/// into X_0 .. X_m of the real 2m-point x, in place (spectrum holds m + 1
/// bins). With E_k = (Z_k + conj Z_{m-k}) / 2 and O_k = (Z_k - conj Z_{m-k})
/// / 2i, the transforms of the even and the odd samples, X_k = E_k + W^k O_k
/// and X_{m-k} = conj(E_k - W^k O_k); twiddles[k] is W^k = e^{-2*pi*i*k/2m}.
void split_real(std::span<std::complex<double>> spectrum,
                std::span<const std::complex<double>> twiddles) {
  const std::size_t m = spectrum.size() - 1;
  const double r0 = spectrum[0].real();
  const double i0 = spectrum[0].imag();
  spectrum[0] = r0 + i0;
  spectrum[m] = r0 - i0;
  // Parts are read and written one double at a time, as in the butterflies,
  // so the loop stays in registers.
  for (std::size_t k = 1; 2 * k <= m; ++k) {
    std::complex<double>& a = spectrum[k];
    std::complex<double>& b = spectrum[m - k];
    const double ar = a.real();
    const double ai = a.imag();
    const double br = b.real();
    const double bi = b.imag();
    const double er = 0.5 * (ar + br);
    const double ei = 0.5 * (ai - bi);
    const double o_r = 0.5 * (ai + bi);
    const double o_i = 0.5 * (br - ar);
    const std::complex<double>& w = twiddles[k];
    const double tr = o_r * w.real() - o_i * w.imag();
    const double ti = o_r * w.imag() + o_i * w.real();
    b.real(er - tr);  // before X_k: the same bin when 2k = m
    b.imag(ti - ei);
    a.real(er + tr);
    a.imag(ei + ti);
  }
}

}  // namespace

std::size_t next_pow2(std::size_t n) noexcept { return std::bit_ceil(n); }

std::size_t prev_pow2(std::size_t n) noexcept { return n == 0 ? 1 : std::bit_floor(n); }

void fft(std::vector<std::complex<double>>& data, bool inverse) {
  const std::size_t n = data.size();
  if (!std::has_single_bit(n)) throw std::invalid_argument("fft: size must be a power of two");
  butterflies<true>(data, bit_reverse_table(n), twiddle_table(n, inverse));
  if (inverse) {
    const double scale = 1.0 / static_cast<double>(n);
    for (auto& x : data) x *= scale;
  }
}

HarmonicPlan::HarmonicPlan(std::size_t n, std::size_t horizon) : horizon_(horizon) {
  if (!std::has_single_bit(n)) throw std::invalid_argument("HarmonicPlan: n must be a power of 2");
  bit_reverse_ = bit_reverse_table(n);
  twiddles_ = twiddle_table(n, /*inverse=*/false);
  basis_.reserve((n / 2 + 1) * horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    for (std::size_t j = 0; j <= n / 2; ++j) basis_.push_back(basis_at(j, n + h, n));
  }
}

HarmonicForecaster::HarmonicForecaster(std::shared_ptr<const HarmonicPlan> plan)
    : plan_(std::move(plan)), spectrum_(plan_->n() / 2 + 1), ranked_(plan_->n() / 2) {}

void HarmonicForecaster::extrapolate(std::span<const double> series, std::size_t harmonics,
                                     std::span<double> out) {
  if (series.empty()) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const std::size_t n = prev_pow2(series.size());  // suffix fit: see harmonic_extrapolate
  fit(series.last(n), harmonics, n, out);
}

void HarmonicForecaster::fit(std::span<const double> window, std::size_t harmonics,
                             std::size_t first, std::span<double> out) {
  const std::size_t n = window.size();
  if (!std::has_single_bit(n) || n > plan_->n()) {
    throw std::invalid_argument("HarmonicForecaster: window must be a power of two <= plan n");
  }
  const std::size_t m = n / 2;
  const std::span<std::complex<double>> spectrum(spectrum_.data(), m + 1);
  if (m == 0) {
    spectrum[0] = window[0];
  } else {
    for (std::size_t k = 0; k < m; ++k) spectrum[k] = {window[2 * k], window[2 * k + 1]};
    butterflies<false>(spectrum.first(m), plan_->bit_reverse_, plan_->twiddles_);
    split_real(spectrum, std::span(plan_->twiddles_).subspan(m - 1, m));  // stage n
  }
  evaluate(spectrum, harmonics, first, out);
}

void HarmonicForecaster::evaluate(std::span<const std::complex<double>> spectrum,
                                  std::size_t harmonics, std::size_t first,
                                  std::span<double> out) {
  const std::size_t m = spectrum.empty() ? 0 : spectrum.size() - 1;  // the Nyquist bin n/2
  const std::size_t n = std::max<std::size_t>(2 * m, 1);
  if (spectrum.empty() || !std::has_single_bit(n) || n > plan_->n()) {
    throw std::invalid_argument("HarmonicForecaster: spectrum must be X_0 .. X_{n/2}, n <= plan n");
  }
  const std::size_t keep = std::min(harmonics, m);
  rank(spectrum, keep);

  // The plan tabulates the basis at indices n .. n+horizon-1 of its own size.
  const bool tabled = first == n && n == plan_->n();
  for (std::size_t h = 0; h < out.size(); ++h) {
    const std::complex<double>* const row =
        tabled && h < plan_->horizon() ? plan_->basis_.data() + h * (m + 1) : nullptr;
    double acc = spectrum[0].real();
    for (std::size_t k = 0; k < keep; ++k) {
      const std::size_t j = ranked_[k].second;
      const std::complex<double> b = row != nullptr ? row[j] : basis_at(j, first + h, n);
      const double term = spectrum[j].real() * b.real() - spectrum[j].imag() * b.imag();
      acc += j == m ? term : 2.0 * term;
    }
    out[h] = acc / static_cast<double>(n);
  }
}

void HarmonicForecaster::rank(std::span<const std::complex<double>> spectrum, std::size_t keep) {
  if (keep == 0) return;
  // Keys descend along ranked_, equal keys in bin order; a NaN norm keys
  // as -inf, below every norm.
  std::size_t count = 0;
  for (std::size_t j = 1; j < spectrum.size(); ++j) {
    const double norm = std::norm(spectrum[j]);
    const double key = std::isnan(norm) ? -std::numeric_limits<double>::infinity() : norm;
    if (count == keep) {
      if (!(key > ranked_[count - 1].first)) continue;
      --count;
    }
    std::size_t pos = count++;
    for (; pos > 0 && ranked_[pos - 1].first < key; --pos) ranked_[pos] = ranked_[pos - 1];
    ranked_[pos] = {key, j};
  }
}

std::vector<double> harmonic_extrapolate(std::span<const double> series, std::size_t harmonics,
                                         std::size_t horizon) {
  std::vector<double> out(horizon, 0.0);
  if (series.empty() || horizon == 0) return out;
  // Untabled: one fit evaluates only its kept bins' basis.
  HarmonicForecaster(std::make_shared<const HarmonicPlan>(prev_pow2(series.size()), 0))
      .extrapolate(series, harmonics, out);
  return out;
}

std::vector<double> harmonic_reconstruct(std::span<const double> series,
                                         std::size_t harmonics) {
  std::vector<double> out(series.size(), 0.0);
  if (series.empty()) return out;
  std::vector<double> padded(next_pow2(series.size()), 0.0);
  std::copy(series.begin(), series.end(), padded.begin());
  HarmonicForecaster(std::make_shared<const HarmonicPlan>(padded.size(), 0))
      .fit(padded, harmonics, 0, out);
  return out;
}

}  // namespace pulse::predict
