#include "sim/schedule.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace pulse::sim {

KeepAliveSchedule::KeepAliveSchedule(const Deployment& deployment, trace::Minute duration)
    : deployment_(&deployment), duration_(duration), functions_(deployment.function_count()) {
  if (duration < 0) throw std::invalid_argument("KeepAliveSchedule: negative duration");
  if (functions_ >= (std::size_t{1} << 24)) {
    throw std::invalid_argument("KeepAliveSchedule: 2^24 or more functions");
  }
  const auto minutes = static_cast<std::size_t>(duration);
  grid_.assign(minutes * functions_, static_cast<std::int16_t>(kNoVariant));
  count_.assign(minutes, 0);
  exact_.assign(minutes, 0);
  horizon_.assign(functions_, 0);
  build_variant_tables();
}

void KeepAliveSchedule::build_variant_tables() {
  max_variants_ = 0;
  variant_count_.assign(functions_, 0);
  for (std::size_t f = 0; f < functions_; ++f) {
    const std::size_t n = deployment_->family_of(f).variant_count();
    variant_count_[f] = static_cast<std::uint32_t>(n);
    max_variants_ = std::max(max_variants_, n);
  }

  var_units_.assign(functions_ * max_variants_, 0);
  for (std::size_t f = 0; f < functions_; ++f) {
    const auto& family = deployment_->family_of(f);
    for (std::size_t v = 0; v < variant_count_[f]; ++v) {
      const double mb = family.variant(v).memory_mb;
      if (!(mb >= 0.0 && mb < std::ldexp(1.0, 30))) {
        throw std::invalid_argument("KeepAliveSchedule: variant memory outside [0, 2^30) MB");
      }
      // Scaling by a power of two is exact; only memories below 2^-8 MB
      // have bits under one unit, and those round to the nearest unit.
      var_units_[f * max_variants_ + v] =
          static_cast<ExactUnits>(std::round(std::ldexp(mb, kUnitShift)));
    }
  }
}

void KeepAliveSchedule::throw_bad_function() {
  throw std::out_of_range("KeepAliveSchedule: function index out of range");
}

void KeepAliveSchedule::throw_bad_variant() {
  throw std::out_of_range("KeepAliveSchedule::set: variant index out of range");
}

void KeepAliveSchedule::fill(trace::FunctionId f, trace::Minute from, trace::Minute to,
                             int variant) {
  from = std::max<trace::Minute>(from, 0);
  to = std::min(to, duration_);
  if (from >= to) return;
  check_function(f);
  if (variant != kNoVariant) {
    if (variant < 0 || static_cast<std::uint32_t>(variant) >= variant_count_[f]) {
      throw_bad_variant();
    }
    horizon_[f] = std::max(horizon_[f], to);
  }
  const auto v = static_cast<std::int16_t>(variant);
  for (trace::Minute t = from; t < to; ++t) write_slot(f, static_cast<std::size_t>(t), v);
}

void KeepAliveSchedule::clear_from(trace::FunctionId f, trace::Minute from) {
  check_function(f);
  from = std::max<trace::Minute>(from, 0);
  const trace::Minute end = std::min(horizon_[f], duration_);
  for (trace::Minute t = from; t < end; ++t) {
    write_slot(f, static_cast<std::size_t>(t), static_cast<std::int16_t>(kNoVariant));
  }
  horizon_[f] = std::min(horizon_[f], from);
}

std::optional<int> KeepAliveSchedule::downgrade_from(trace::FunctionId f, trace::Minute t) {
  const int current = variant_at(f, t);
  if (current == kNoVariant) return std::nullopt;
  for (trace::Minute m = t; m < duration_; ++m) {
    const std::int16_t v = grid_[static_cast<std::size_t>(m) * functions_ + f];
    if (v == kNoVariant) break;  // end of the current keep-alive window
    write_slot(f, static_cast<std::size_t>(m),
               static_cast<std::int16_t>(v > 0 ? v - 1 : kNoVariant));
  }
  return current;
}

void KeepAliveSchedule::evict_from(trace::FunctionId f, trace::Minute t) {
  if (t < 0 || t >= duration_) return;
  check_function(f);
  for (trace::Minute m = t; m < duration_; ++m) {
    const std::int16_t v = grid_[static_cast<std::size_t>(m) * functions_ + f];
    if (v == kNoVariant) break;
    write_slot(f, static_cast<std::size_t>(m), static_cast<std::int16_t>(kNoVariant));
  }
}

std::vector<std::pair<trace::FunctionId, std::size_t>> KeepAliveSchedule::kept_alive_at(
    trace::Minute t) const {
  std::vector<std::pair<trace::FunctionId, std::size_t>> out;
  kept_alive_at(t, out);
  return out;
}

void KeepAliveSchedule::kept_alive_at(
    trace::Minute t, std::vector<std::pair<trace::FunctionId, std::size_t>>& out) const {
  out.clear();
  out.reserve(alive_count_at(t));
  for_each_alive(t, [&out](trace::FunctionId f, std::size_t v) { out.emplace_back(f, v); });
}

}  // namespace pulse::sim
