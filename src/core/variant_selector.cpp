#include "core/variant_selector.hpp"

#include <stdexcept>

namespace pulse::core {

void detail::throw_no_variants() {
  throw std::invalid_argument("select_variant: variant_count must be >= 1");
}

std::size_t threshold_count(std::size_t variant_count, ThresholdTechnique technique) noexcept {
  if (variant_count == 0) return 0;
  switch (technique) {
    case ThresholdTechnique::kT1:
      return variant_count - 1;
    case ThresholdTechnique::kT2:
      return variant_count >= 2 ? variant_count - 2 : 0;
  }
  return 0;
}

}  // namespace pulse::core
