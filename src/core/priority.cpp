#include "core/priority.hpp"

#include <algorithm>
#include <stdexcept>

namespace pulse::core {

PriorityStructure::PriorityStructure(std::size_t model_count)
    : counts_(model_count, 0), at_lo_(model_count) {}

void PriorityStructure::record_downgrade(trace::FunctionId f) {
  const std::uint64_t before = counts_.at(f)++;
  ++total_;
  hi_ = std::max(hi_, before + 1);
  if (before == lo_ && --at_lo_ == 0) {
    // f was the last model at the minimum: the minimum rose.
    lo_ = *std::min_element(counts_.begin(), counts_.end());
    at_lo_ = static_cast<std::size_t>(std::count(counts_.begin(), counts_.end(), lo_));
  }
}

std::uint64_t PriorityStructure::downgrade_count(trace::FunctionId f) const {
  return counts_.at(f);
}

std::vector<double> PriorityStructure::normalized() const {
  std::vector<double> values(counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) values[i] = normalized_of(i);
  return values;
}

double PriorityStructure::normalized_priority(trace::FunctionId f) const {
  if (f >= counts_.size()) throw std::out_of_range("PriorityStructure::normalized_priority");
  return normalized_of(f);
}

}  // namespace pulse::core
