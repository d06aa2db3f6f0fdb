#include "sim/metrics.hpp"

#include "util/stats.hpp"

namespace pulse::sim {

RunTotals& RunTotals::operator+=(const RunTotals& o) noexcept {
  failed_invocations += o.failed_invocations;
  retries += o.retries;
  timeouts += o.timeouts;
  crash_evictions += o.crash_evictions;
  capacity_evictions += o.capacity_evictions;
  degraded_minutes += o.degraded_minutes;
  guard_incidents += o.guard_incidents;
  invocations += o.invocations;
  warm_starts += o.warm_starts;
  cold_starts += o.cold_starts;
  downgrades += o.downgrades;
  total_service_time_s += o.total_service_time_s;
  accuracy_pct_sum += o.accuracy_pct_sum;
  return *this;
}

double RunResult::service_time_percentile(double p) const {
  if (service_time_samples.empty()) return 0.0;
  return util::percentile(service_time_samples, p);
}

std::vector<double> RunResult::service_time_percentiles(std::span<const double> ps) const {
  return util::percentiles(service_time_samples, ps);
}

}  // namespace pulse::sim
