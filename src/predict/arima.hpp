#pragma once
// AR(p) forecaster with optional differencing — the "ARIMA model" fallback
// Serverless-in-the-Wild applies to functions whose inter-arrival histogram
// is not representative. Fitted by least squares on the normal equations.

#include <cstddef>
#include <span>
#include <vector>

namespace pulse::predict {

class ArModel {
 public:
  /// order: number of AR lags p (>= 1). difference: d in {0, 1} — first
  /// differencing handles drifting levels.
  explicit ArModel(std::size_t order = 3, std::size_t difference = 0);

  /// Fits on `series`. Returns false (model keeps forecasting the series
  /// mean) when there is too little data or the normal equations are
  /// singular (e.g. a constant series). With difference 0 it never
  /// allocates; with difference 1 only when the series outgrows every
  /// earlier one.
  bool fit(std::span<const double> series);

  /// Forecasts `steps` values past the end of the fitted series.
  [[nodiscard]] std::vector<double> forecast(std::size_t steps) const;

  /// One-step forecast without allocating: forecast(1)[0], same arithmetic.
  [[nodiscard]] double forecast_one() const;

  [[nodiscard]] bool fitted() const noexcept { return fitted_; }
  [[nodiscard]] std::size_t order() const noexcept { return order_; }
  [[nodiscard]] std::span<const double> coefficients() const noexcept { return coeffs_; }
  [[nodiscard]] double intercept() const noexcept { return intercept_; }

 private:
  std::size_t order_;
  std::size_t difference_;
  bool fitted_ = false;
  double intercept_ = 0.0;
  double fallback_mean_ = 0.0;
  double last_level_ = 0.0;           // last undifferenced value (d=1 integration)
  std::vector<double> coeffs_;        // AR coefficients, lag 1 first
  std::vector<double> tail_;          // last `order_` (differenced) values

  // Fit scratch, reused across fits so a refit of a same-sized window never
  // allocates.
  std::vector<double> diff_;          // the differenced series (d=1 only)
  std::vector<double> xtx_;           // (p+1)^2 row-major normal equations
  std::vector<double> beta_;          // X^T y, solved in place into beta
  std::vector<double> row_;           // one regression row [1, lags...]
};

}  // namespace pulse::predict
