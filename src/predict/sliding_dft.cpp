#include "predict/sliding_dft.hpp"

#include <cmath>
#include <numbers>
#include <span>
#include <stdexcept>

namespace pulse::predict {

SlidingDft::SlidingDft(std::size_t window, std::size_t refresh_interval)
    : SlidingDft(std::make_shared<const HarmonicPlan>(window, 0), refresh_interval) {}

SlidingDft::SlidingDft(std::shared_ptr<const HarmonicPlan> plan, std::size_t refresh_interval)
    : window_(plan->n()),
      refresh_interval_(refresh_interval == 0 ? window_ * 4 : refresh_interval),
      samples_(window_),
      coeffs_(window_, {0.0, 0.0}),
      twiddles_(window_),
      forecaster_(std::move(plan)) {
  for (std::size_t k = 0; k < window_; ++k) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(window_);
    twiddles_[k] = {std::cos(angle), std::sin(angle)};
  }
}

void SlidingDft::refresh() {
  for (std::size_t i = 0; i < window_; ++i) coeffs_[i] = samples_[i];
  forecaster_.plan()->transform(coeffs_);
  pushes_since_refresh_ = 0;
}

void SlidingDft::push(double x) {
  if (samples_.size() < window_) {
    samples_.push_back(x);
    if (samples_.size() == window_) refresh();  // anchor the recurrence
    return;
  }

  const double x_old = samples_.front();
  samples_.pop_front();
  samples_.push_back(x);
  const std::complex<double> delta(x - x_old, 0.0);
  for (std::size_t k = 0; k < window_; ++k) {
    coeffs_[k] = (coeffs_[k] + delta) * twiddles_[k];
  }
  if (++pushes_since_refresh_ >= refresh_interval_) refresh();
}

void SlidingDft::extrapolate_into(std::size_t harmonics, std::size_t horizon,
                                  std::vector<double>& out) const {
  if (!ready()) throw std::logic_error("SlidingDft::extrapolate_into: window not full");
  if (out.size() < horizon) {
    throw std::invalid_argument("SlidingDft::extrapolate_into: out buffer too small");
  }
  forecaster_.evaluate(coeffs_, harmonics, window_, std::span<double>(out.data(), horizon));
}

}  // namespace pulse::predict
