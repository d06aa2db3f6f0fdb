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

/// A fitted count within 2^900 in magnitude runs the unchecked butterflies.
constexpr double kBounded = 0x1p900;

/// Radix-2 transform of `data`, a power of two no larger than the tables
/// (whose first stages are the smaller transform's). The twiddle product is
/// std::complex's inline expansion, (ac - bd, ad + bc) with the operator's
/// infinity recovery when both parts are NaN, spelled out to stay in registers.
/// kChecked = false drops the recovery: only for inputs within kBounded,
/// where every part stays below 2^964 over up to 63 stages, so no product is
/// NaN and the recovery is unreachable.
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

/// Offers (key, j) to top[0, count): the largest keys offered so far, in
/// descending order, at most top.size() of them. Returns the key left out:
/// the offered one, the smallest one it pushed out, or -inf while top has
/// room. Equal keys keep arrival order, NaN sinks to the end; callers that
/// need a unique order check for both.
double offer(std::span<std::pair<double, std::size_t>> top, std::size_t& count, double key,
             std::size_t j) {
  double left_out = -std::numeric_limits<double>::infinity();
  if (count == top.size()) {
    if (!(key > top[count - 1].first)) return key;
    left_out = top[--count].first;
  }
  std::size_t pos = count++;
  for (; pos > 0 && top[pos - 1].first < key; --pos) top[pos] = top[pos - 1];
  top[pos] = {key, j};
  return left_out;
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
  basis_.reserve(n * horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    for (std::size_t j = 0; j < n; ++j) basis_.push_back(basis_at(j, n + h, n));
  }
}

void HarmonicPlan::transform(std::span<std::complex<double>> data) const {
  if (!std::has_single_bit(data.size()) || data.size() > n()) {
    throw std::invalid_argument("HarmonicPlan::transform: size must be a power of two <= n()");
  }
  butterflies<true>(data, bit_reverse_, twiddles_);
}

HarmonicForecaster::HarmonicForecaster(std::shared_ptr<const HarmonicPlan> plan)
    : plan_(std::move(plan)),
      coeffs_(plan_->n()),
      ranked_(plan_->n() / 2),
      norms_(plan_->n() / 2) {
  bins_.reserve(plan_->n() + 1);
}

void HarmonicForecaster::extrapolate(std::span<const double> series, std::size_t harmonics,
                                     std::span<double> out) {
  if (series.empty()) {
    std::fill(out.begin(), out.end(), 0.0);
    return;
  }
  const std::size_t n = prev_pow2(series.size());  // suffix fit: see harmonic_extrapolate
  if (n > coeffs_.size()) throw std::invalid_argument("HarmonicForecaster: series exceeds plan");
  const std::span<std::complex<double>> coeffs(coeffs_.data(), n);
  const double* const suffix = series.data() + (series.size() - n);
  bool bounded = true;
  for (std::size_t i = 0; i < n; ++i) {
    coeffs[i] = suffix[i];
    bounded &= std::abs(suffix[i]) <= kBounded;  // false on NaN and inf
  }
  if (bounded) {
    butterflies<false>(coeffs, plan_->bit_reverse_, plan_->twiddles_);
  } else {
    butterflies<true>(coeffs, plan_->bit_reverse_, plan_->twiddles_);
  }
  evaluate(coeffs, harmonics, n, out);
}

void HarmonicForecaster::evaluate(std::span<const std::complex<double>> coeffs,
                                  std::size_t harmonics, std::size_t first,
                                  std::span<double> out) {
  const std::size_t n = coeffs.size();
  if (n > coeffs_.size()) throw std::invalid_argument("HarmonicForecaster: spectrum exceeds plan");

  // Bin j and its conjugate mirror N-j are kept together so the model stays
  // real.
  const std::size_t keep = std::min(harmonics, n / 2);
  if (keep > 0) rank(coeffs, keep);
  bins_.clear();
  bins_.push_back(0);  // DC: the mean invocation level
  for (std::size_t k = 0; k < keep; ++k) {
    const std::size_t j = ranked_[k].second;
    bins_.push_back(j);
    const std::size_t mirror = (n - j) % n;
    if (mirror != j && mirror != 0) bins_.push_back(mirror);
  }

  // The plan tabulates the basis at indices n .. n+horizon-1 of its own size.
  const bool tabled = first == n && n == plan_->n();
  for (std::size_t h = 0; h < out.size(); ++h) {
    const std::complex<double>* const row =
        tabled && h < plan_->horizon() ? plan_->basis_.data() + h * n : nullptr;
    std::complex<double> acc{0.0, 0.0};
    for (const std::size_t j : bins_) {
      acc += coeffs[j] * (row != nullptr ? row[j] : basis_at(j, first + h, n));
    }
    out[h] = acc.real() / static_cast<double>(n);
  }
}

void HarmonicForecaster::rank(std::span<const std::complex<double>> coeffs, std::size_t keep) {
  const std::size_t half = coeffs.size() / 2;
  const std::span<std::pair<double, std::size_t>> top(ranked_.data(), keep);

  // Screen: a bin whose squared magnitude is 2^-40 (relative) below the
  // keep-th largest is below at least `keep` bins in |X_j| too, since norm
  // and abs each err by a few ulp. Off when any norm is NaN or the keep-th
  // is infinite or below 2^-900 (where x*x may underflow): then every bin
  // is ranked.
  bool screened = false;
  double cutoff = 0.0;
  if (keep < half) {
    bool nan = false;
    std::size_t count = 0;
    for (std::size_t j = 1; j <= half; ++j) {
      const double norm = std::norm(coeffs[j]);
      norms_[j - 1] = norm;
      nan |= std::isnan(norm);
      offer(top, count, norm, j);
    }
    const double kth = top[keep - 1].first;
    screened = !nan && std::isfinite(kth) && kth >= 0x1p-900;
    cutoff = kth * (1.0 - 0x1p-40);
  }

  // Select the top `keep` of |X_j| among the screened-in bins. If their keys
  // fall strictly and every other key is below the last, that is the only
  // prefix std::sort (or any correct sort) can produce.
  std::size_t count = 0;
  double rest = -std::numeric_limits<double>::infinity();  // largest key left out
  bool nan = false;
  for (std::size_t j = 1; j <= half; ++j) {
    if (screened && norms_[j - 1] < cutoff) continue;
    const double key = std::abs(coeffs[j]);
    nan |= std::isnan(key);
    rest = std::max(rest, offer(top, count, key, j));
  }
  bool unique = !nan && rest < top[keep - 1].first;
  for (std::size_t k = 1; unique && k < keep; ++k) unique = top[k - 1].first > top[k].first;
  if (unique) return;

  // A tie or a NaN: the order is whatever std::sort makes of the keys in
  // bin order, one |X_j| per bin.
  for (std::size_t j = 1; j <= half; ++j) ranked_[j - 1] = {std::abs(coeffs[j]), j};
  std::sort(ranked_.begin(), ranked_.begin() + static_cast<std::ptrdiff_t>(half),
            [](const auto& a, const auto& b) { return a.first > b.first; });
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
  std::vector<std::complex<double>> coeffs(next_pow2(series.size()), 0.0);
  std::copy(series.begin(), series.end(), coeffs.begin());
  fft(coeffs);
  HarmonicForecaster(std::make_shared<const HarmonicPlan>(coeffs.size(), 0))
      .evaluate(coeffs, harmonics, 0, out);
  return out;
}

}  // namespace pulse::predict
