#pragma once
// A Deployment binds every trace function to an ML model family for one
// simulation run. The paper's ensemble varies exactly this binding across
// its 1000 runs ("each run with different model-to-function assignments").

#include <cstddef>
#include <vector>

#include "models/latency.hpp"
#include "models/zoo.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

namespace pulse::sim {

class Deployment {
 public:
  Deployment() = default;

  /// `families` must be non-null pointers into a ModelZoo that outlives the
  /// deployment (the zoo is immutable for the whole experiment).
  explicit Deployment(std::vector<const models::ModelFamily*> families);

  [[nodiscard]] std::size_t function_count() const noexcept { return families_.size(); }

  [[nodiscard]] const models::ModelFamily& family_of(trace::FunctionId f) const {
    return *families_.at(f);
  }

  /// Uniform random family per function (the ensemble's per-run assignment).
  [[nodiscard]] static Deployment random(const models::ModelZoo& zoo,
                                         std::size_t function_count, util::Pcg32& rng);

  /// Deterministic family assignment (function i -> family i mod |zoo|);
  /// used by tests and single-run figures that need reproducibility without
  /// an ensemble.
  [[nodiscard]] static Deployment round_robin(const models::ModelZoo& zoo,
                                              std::size_t function_count);

  /// Total keep-alive memory if every function kept its highest-quality
  /// variant alive simultaneously — a natural memory-budget reference.
  [[nodiscard]] double peak_highest_memory_mb() const noexcept;

 private:
  std::vector<const models::ModelFamily*> families_;
};

/// Every (function, variant)'s prepared latency jitter in one flat table,
/// built once per run so the per-invocation draw reads it instead of
/// recomputing the lognormal parameters.
class LatencyTable {
 public:
  LatencyTable(const Deployment& deployment, const models::LatencyModel& model);

  [[nodiscard]] const models::LatencyModel::Prepared& at(trace::FunctionId f,
                                                         std::size_t variant) const noexcept {
    return table_[f * stride_ + variant];
  }

 private:
  std::size_t stride_ = 0;  // the deployment's largest variant count
  std::vector<models::LatencyModel::Prepared> table_;
};

}  // namespace pulse::sim
