#include "models/model.hpp"

#include <cmath>

namespace pulse::models {

ModelFamily::ModelFamily(std::string name, std::string task, std::string dataset,
                         std::vector<ModelVariant> variants)
    : name_(std::move(name)),
      task_(std::move(task)),
      dataset_(std::move(dataset)),
      variants_(std::move(variants)) {
  if (variants_.empty()) {
    throw std::invalid_argument("ModelFamily '" + name_ + "': needs at least one variant");
  }
  for (std::size_t i = 1; i < variants_.size(); ++i) {
    if (variants_[i].accuracy_pct < variants_[i - 1].accuracy_pct) {
      throw std::invalid_argument("ModelFamily '" + name_ +
                                  "': variants must be sorted ascending by accuracy");
    }
  }
  for (const auto& v : variants_) {
    // Written as "inside the range" so NaN fails every test; the finiteness
    // checks reject +inf, which a CSV "inf" parses to.
    const bool in_range = v.warm_service_time_s >= 0 && std::isfinite(v.warm_service_time_s) &&
                          v.cold_start_time_s >= 0 && std::isfinite(v.cold_start_time_s) &&
                          v.memory_mb >= 0 && std::isfinite(v.memory_mb) &&
                          v.accuracy_pct >= 0 && v.accuracy_pct <= 100;
    if (!in_range) {
      throw std::invalid_argument("ModelFamily '" + name_ + "': variant '" + v.name +
                                  "' has out-of-range characterization values");
    }
  }
}

std::optional<std::size_t> ModelFamily::find_variant(std::string_view name) const noexcept {
  for (std::size_t i = 0; i < variants_.size(); ++i) {
    if (variants_[i].name == name) return i;
  }
  return std::nullopt;
}

double ModelFamily::accuracy_improvement(std::size_t index) const {
  const ModelVariant& v = variant(index);
  if (index == 0) {
    // Lowest variant: "the accuracy improvement is equivalent to the
    // accuracy of this lowest quality variant in decimal form" (paper §III-B).
    return v.accuracy_fraction();
  }
  return v.accuracy_fraction() - variants_[index - 1].accuracy_fraction();
}

}  // namespace pulse::models
