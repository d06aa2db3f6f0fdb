// A keep-alive policy's own footprint is part of its cost: the live heap a
// policy's initialize() leaves behind, per function, stays under a fixed
// bound. PULSE's per-function state is one inter-arrival tracker block
// (interleaved count pairs plus a ring of 32-bit end-minute offsets);
// IceBreaker's is two FFT windows of count history, however long the run.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "memory/heap_counter.hpp"
#include "policies/factory.hpp"
#include "sim/deployment.hpp"
#include "sim/schedule.hpp"
#include "trace/trace.hpp"

namespace pulse::policies {
namespace {

constexpr double kKiB = 1024.0;

/// Live heap bytes `policy`'s initialize() holds per function.
double initialized_bytes_per_function(const std::string& policy_name,
                                      std::size_t function_count, trace::Minute duration) {
  const trace::Trace trace(function_count, duration);
  const models::ModelZoo zoo = models::ModelZoo::builtin();
  const sim::Deployment deployment = sim::Deployment::round_robin(zoo, function_count);
  sim::KeepAliveSchedule schedule(deployment, duration);
  const auto policy = make_policy(policy_name);

  const std::int64_t before = testutil::heap_counts().live_bytes;
  policy->initialize(deployment, trace, schedule);
  const std::int64_t after = testutil::heap_counts().live_bytes;
  return static_cast<double>(after - before) / static_cast<double>(function_count);
}

TEST(PolicyStateMemory, PulseHoldsAtMostTwoAndAHalfKiBPerFunction) {
  // Default PULSE (60-minute local window, 10-minute keep-alive window):
  // about 1.1 KB of tracker block plus the tracker object and the
  // optimizer's per-function entries.
  const double per_function = initialized_bytes_per_function("pulse", 1000, trace::kMinutesPerDay);
  RecordProperty("bytes_per_function", std::to_string(per_function));
  EXPECT_LE(per_function, 2.5 * kKiB);
}

TEST(PolicyStateMemory, IceBreakerPulseHoldsAtMostEightAndAHalfKiBPerFunctionOnFourteenDays) {
  // IceBreaker+PULSE over 14 days: 2 x 256 doubles of count history
  // (4 KiB) plus PULSE's tracker, independent of the trace's length.
  const double per_function =
      initialized_bytes_per_function("icebreaker+pulse", 200, 14 * trace::kMinutesPerDay);
  RecordProperty("bytes_per_function", std::to_string(per_function));
  EXPECT_LE(per_function, 8.5 * kKiB);
}

}  // namespace
}  // namespace pulse::policies
