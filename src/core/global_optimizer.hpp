#pragma once
// Cross-function optimization — Algorithm 2 of the paper.
//
// When the peak detector flags a minute, the optimizer repeatedly scores
// every kept-alive model with the utility value Uv = Ai + Pr + Ip and
// downgrades the lowest-utility model by one variant (the lowest variant is
// dropped entirely, i.e. the next invocation cold-starts), until the peak
// is flattened. Every downgrade is tallied in the priority structure so the
// burden rotates across models instead of repeatedly hitting the same one.

#include <cstdint>
#include <optional>
#include <vector>

#include "core/interarrival.hpp"
#include "core/peak_detector.hpp"
#include "core/priority.hpp"
#include "core/utility.hpp"
#include "obs/observer.hpp"
#include "sim/schedule.hpp"
#include "trace/analysis.hpp"

namespace pulse::core {

class GlobalOptimizer {
 public:
  struct Config {
    PeakDetector::Config peak{};
    /// Length of the keep-alive window Ip is evaluated over.
    trace::Minute keepalive_window = trace::kKeepAliveWindow;
    /// Utility component weights (equal by default, per the paper).
    UtilityWeights weights{};
  };

  GlobalOptimizer(std::size_t model_count, Config config);

  /// Runs Algorithm 2 for minute t: if detect_peak(t) flags a peak,
  /// downgrades lowest-Uv models (mutating `schedule` from minute t
  /// onward) until the peak is flattened or nothing is left to downgrade.
  /// Must be called once per minute in order. Returns the number of
  /// downgrades performed for this minute.
  std::size_t flatten_peak(trace::Minute t, sim::KeepAliveSchedule& schedule,
                           const std::vector<InterArrivalTracker>& trackers);

  /// Algorithm 1 for minute t: feeds minute t's demand memory to the
  /// detector, then returns the prior it was compared against when t is a
  /// peak, nullopt otherwise. Must be called once per minute in order from
  /// minute 0; flatten_peak calls it. Throws std::logic_error when t is not
  /// the next minute.
  ///
  /// The detector sees *demand* — what the function-centric step scheduled
  /// before any peak flattening — not the post-flatten memory the platform
  /// actually held: comparing against the flattened series would classify
  /// any recovery above the flattened level as a new peak and ratchet
  /// keep-alive memory toward zero.
  std::optional<double> detect_peak(trace::Minute t, const sim::KeepAliveSchedule& schedule);

  /// Tallies one downgrade of f (Algorithm 2, line 10) for a peak step
  /// that chooses its downgrades itself.
  void record_downgrade(trace::FunctionId f) { priority_.record_downgrade(f); }

  /// Utility score for function f keeping variant `variant` alive at t,
  /// with f's priority normalized over this optimizer's downgrade counts.
  [[nodiscard]] UtilityComponents score(trace::FunctionId f, std::size_t variant,
                                        trace::Minute t,
                                        const sim::Deployment& deployment,
                                        const std::vector<InterArrivalTracker>& trackers) const;

  /// Pre-resolved optimizer.* handle bundle (metrics_registry.hpp): bound
  /// once in set_observer, added to on the flatten path — no name lookup
  /// per peak minute.
  struct Metrics {
    obs::CounterHandle peak_minutes;
    obs::CounterHandle downgrades;
  };

  /// Attaches the observability context (nullptr = disabled). The owning
  /// policy forwards what the engine handed it; the optimizer then emits a
  /// kDowngrade event per downgrade and keeps optimizer.* counters.
  void set_observer(const obs::Observer* observer);

  [[nodiscard]] std::uint64_t total_downgrades() const noexcept {
    return priority_.total_downgrades();
  }
  [[nodiscard]] const PriorityStructure& priority() const noexcept { return priority_; }
  [[nodiscard]] const PeakDetector& detector() const noexcept { return detector_; }

 private:
  Config config_;
  PeakDetector detector_;
  PriorityStructure priority_;
  const obs::Observer* obs_ = nullptr;
  Metrics metrics_;

  /// Reused across flatten_peak rounds (allocation-free hot path).
  /// kept_utility_[i] holds kept_buffer_[i]'s score(): Ip is fixed for the
  /// whole call (the trackers are const) and Ai only moves for the entry
  /// just downgraded, so a round refreshes just the priority part, O(1)
  /// per entry through PriorityStructure::normalized_of.
  std::vector<std::pair<trace::FunctionId, std::size_t>> kept_buffer_;
  std::vector<UtilityComponents> kept_utility_;
};

}  // namespace pulse::core
