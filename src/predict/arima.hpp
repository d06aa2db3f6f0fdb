#pragma once
// AR(p) forecaster with optional differencing — the "ARIMA model" fallback
// Serverless-in-the-Wild applies to functions whose inter-arrival histogram
// is not representative. Fitted by least squares on the normal equations.

#include <cstddef>
#include <span>
#include <vector>

#include "util/ring_buffer.hpp"

namespace pulse::predict {

class ArModel {
 public:
  /// order: number of AR lags p (>= 1). difference: d in {0, 1} — first
  /// differencing handles drifting levels.
  explicit ArModel(std::size_t order = 3, std::size_t difference = 0);

  /// Fits on `series`. Returns false (model keeps forecasting the series
  /// mean) when there is too little data or the normal equations are
  /// singular (e.g. a constant series).
  bool fit(std::span<const double> series);

  /// Forecasts `steps` values past the end of the fitted series.
  [[nodiscard]] std::vector<double> forecast(std::size_t steps) const;

  // --- Streaming fit path (difference == 0 only) -------------------------
  //
  // Instead of refitting from the full window per decision (O(window x p^2)
  // per fit), the streaming path maintains the normal-equation accumulators
  // X^T X and X^T y incrementally: each new observation adds the outer
  // product of the one regression row it creates and, once the ring is
  // full, subtracts the row that slides out — O(p^2) per observation. A
  // periodic exact rebuild (every `refresh_interval` observations) bounds
  // floating-point drift, so stream_fit() matches the batch fit over the
  // same window within tolerance (exactly, right after a rebuild). All
  // state is preallocated by stream_begin(); stream_observe / stream_fit /
  // forecast_one never touch the allocator.

  /// Enters streaming mode over a sliding window of `window` observations.
  /// refresh_interval 0 picks a default (4x window). Resets prior state.
  void stream_begin(std::size_t window, std::size_t refresh_interval = 0);

  /// Feeds one observation; O(p^2) amortized, allocation-free.
  void stream_observe(double x);

  /// Solves the accumulated normal equations in place. Same contract as
  /// fit(): returns false (mean fallback) on too little data or a singular
  /// system. Allocation-free.
  bool stream_fit();

  /// One-step forecast without allocating (equals forecast(1)[0]).
  [[nodiscard]] double forecast_one() const;

  [[nodiscard]] bool streaming() const noexcept { return streaming_; }
  [[nodiscard]] std::size_t stream_size() const noexcept { return ring_.size(); }

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] std::size_t order() const noexcept { return order_; }
  [[nodiscard]] std::span<const double> coefficients() const noexcept { return coeffs_; }
  [[nodiscard]] double intercept() const noexcept { return intercept_; }

 private:
  void stream_rebuild();  // exact re-accumulation

  std::size_t order_;
  std::size_t difference_;
  bool fitted_ = false;
  double intercept_ = 0.0;
  double fallback_mean_ = 0.0;
  double last_level_ = 0.0;           // last undifferenced value (d=1 integration)
  std::vector<double> coeffs_;        // AR coefficients, lag 1 first
  std::vector<double> tail_;          // last `order_` (differenced) values

  // Streaming state (inert in batch mode; see stream_begin()).
  bool streaming_ = false;
  std::size_t stream_window_ = 0;
  std::size_t refresh_interval_ = 0;
  std::size_t since_refresh_ = 0;
  util::RingBuffer<double> ring_;     // the sliding window, oldest first
  double running_sum_ = 0.0;          // sum over the ring (mean fallback)
  std::vector<double> acc_xtx_;       // (p+1)^2 row-major normal equations
  std::vector<double> acc_xty_;       // p+1
  std::vector<double> row_scratch_;   // one regression row [1, lags...]
  std::vector<double> solve_a_;       // scratch copies for the in-place solve
  std::vector<double> solve_b_;
};

}  // namespace pulse::predict
