#include "sim/deployment.hpp"

#include <algorithm>
#include <stdexcept>

namespace pulse::sim {

Deployment::Deployment(std::vector<const models::ModelFamily*> families)
    : families_(std::move(families)) {
  for (const auto* f : families_) {
    if (f == nullptr) throw std::invalid_argument("Deployment: null family pointer");
  }
}

Deployment Deployment::random(const models::ModelZoo& zoo, std::size_t function_count,
                              util::Pcg32& rng) {
  if (zoo.family_count() == 0) throw std::invalid_argument("Deployment::random: empty zoo");
  std::vector<const models::ModelFamily*> families;
  families.reserve(function_count);
  for (std::size_t f = 0; f < function_count; ++f) {
    families.push_back(&zoo.family(rng.bounded(static_cast<std::uint32_t>(zoo.family_count()))));
  }
  return Deployment(std::move(families));
}

Deployment Deployment::round_robin(const models::ModelZoo& zoo, std::size_t function_count) {
  if (zoo.family_count() == 0) {
    throw std::invalid_argument("Deployment::round_robin: empty zoo");
  }
  std::vector<const models::ModelFamily*> families;
  families.reserve(function_count);
  for (std::size_t f = 0; f < function_count; ++f) {
    families.push_back(&zoo.family(f % zoo.family_count()));
  }
  return Deployment(std::move(families));
}

double Deployment::peak_highest_memory_mb() const noexcept {
  double total = 0.0;
  for (const auto* f : families_) total += f->highest().memory_mb;
  return total;
}

LatencyTable::LatencyTable(const Deployment& deployment, const models::LatencyModel& model) {
  const std::size_t functions = deployment.function_count();
  for (std::size_t f = 0; f < functions; ++f) {
    stride_ = std::max(stride_, deployment.family_of(f).variant_count());
  }
  table_.resize(functions * stride_);
  for (std::size_t f = 0; f < functions; ++f) {
    const models::ModelFamily& family = deployment.family_of(f);
    for (std::size_t v = 0; v < family.variant_count(); ++v) {
      table_[f * stride_ + v] = model.prepare(family.variant(v));
    }
  }
}

}  // namespace pulse::sim
