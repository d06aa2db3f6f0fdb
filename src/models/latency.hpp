#pragma once
// Stochastic service-time model.
//
// The paper measures each variant's warm and cold service times over 1000
// inputs; per-invocation times vary with the input. We reproduce that with a
// lognormal jitter around the characterized means (lognormal matches the
// right-skewed latency distributions serverless measurement studies report).

#include "models/model.hpp"
#include "util/rng.hpp"

namespace pulse::models {

class LatencyModel {
 public:
  /// warm_cv / cold_cv: coefficient of variation of the jitter around the
  /// characterized warm execution time and cold-start penalty. Zero CV makes
  /// the model deterministic (used by unit tests and the ideal-cost bench).
  explicit LatencyModel(double warm_cv = 0.08, double cold_cv = 0.15) noexcept
      : warm_cv_(warm_cv), cold_cv_(cold_cv) {}

  /// A variant's warm and cold jitter, prepared once so a draw does no
  /// more than the random part. The simulators keep one per (function,
  /// variant); see sim::LatencyTable.
  struct Prepared {
    util::LognormalParams warm;
    util::LognormalParams cold;
  };

  [[nodiscard]] Prepared prepare(const ModelVariant& variant) const {
    return {util::lognormal_params(variant.warm_service_time_s, warm_cv_),
            util::lognormal_params(variant.cold_start_time_s, cold_cv_)};
  }

  /// Service time of one invocation, seconds. Cold invocations pay the
  /// cold-start penalty on top of execution.
  [[nodiscard]] static double sample(const Prepared& prepared, bool cold, util::Pcg32& rng) {
    double t = util::lognormal(rng, prepared.warm);
    if (cold) t += util::lognormal(rng, prepared.cold);
    return t;
  }

  /// Expected (mean) service time — what the deterministic experiment paths
  /// and the ideal-cost computation use.
  [[nodiscard]] static double expected_service_time(const ModelVariant& variant,
                                                    bool cold) noexcept {
    return cold ? variant.cold_service_time_s() : variant.warm_service_time_s;
  }

  [[nodiscard]] double warm_cv() const noexcept { return warm_cv_; }
  [[nodiscard]] double cold_cv() const noexcept { return cold_cv_; }

 private:
  double warm_cv_;
  double cold_cv_;
};

}  // namespace pulse::models
