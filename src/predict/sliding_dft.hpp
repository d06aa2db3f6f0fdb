#pragma once
// Sliding (hopping-free) DFT over a fixed power-of-two window — the
// streaming counterpart of predict::harmonic_extrapolate for the online
// serving mode. Each new sample updates every frequency bin with the
// recurrence
//
//   X_k <- (X_k - x_old + x_new) * e^{+2*pi*i*k/N}
//
// (O(N) per sample, no transform), and a periodic exact FFT refresh
// re-anchors the coefficients so the recurrence's floating-point drift
// stays bounded. Immediately after a refresh the coefficients — and hence
// the extrapolation — are bit-identical to the batch fit over the same
// window; between refreshes they agree within tolerance. Both run on
// HarmonicForecaster's kernel. All storage is preallocated at
// construction: push() and extrapolate_into() never touch the allocator,
// which the serve-mode latency bench (bench_serve_latency) asserts.

#include <complex>
#include <cstddef>
#include <memory>
#include <vector>

#include "predict/fft.hpp"
#include "util/ring_buffer.hpp"

namespace pulse::predict {

class SlidingDft {
 public:
  /// A window of `window` samples (a power of two, else
  /// std::invalid_argument), or of plan->n() sharing `plan`'s tables.
  /// refresh_interval is the number of pushes between exact FFT re-anchors
  /// once the window is full; 0 picks the default 4*window.
  explicit SlidingDft(std::size_t window, std::size_t refresh_interval = 0);
  explicit SlidingDft(std::shared_ptr<const HarmonicPlan> plan, std::size_t refresh_interval = 0);

  /// Feeds one sample. O(window) once the window is full, O(1) before
  /// (plus one FFT the moment it fills). Allocation-free.
  void push(double x);

  /// True once `window` samples have been seen and coefficients exist.
  [[nodiscard]] bool ready() const noexcept { return samples_.size() == window_; }

  /// harmonic_extrapolate(window, harmonics, horizon) over the current
  /// window, written to out[0..horizon); `out` must already hold `horizon`
  /// elements. Const and allocation-free. Requires ready().
  void extrapolate_into(std::size_t harmonics, std::size_t horizon,
                        std::vector<double>& out) const;

 private:
  void refresh();  // exact FFT over the current window into coeffs_

  std::size_t window_;
  std::size_t refresh_interval_;
  std::size_t pushes_since_refresh_ = 0;
  util::RingBuffer<double> samples_;
  std::vector<std::complex<double>> coeffs_;    // current window's DFT
  std::vector<std::complex<double>> twiddles_;  // e^{+2*pi*i*k/N}
  mutable HarmonicForecaster forecaster_;       // shared plan + ranking scratch
};

}  // namespace pulse::predict
