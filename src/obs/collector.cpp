#include "obs/collector.hpp"

namespace pulse::obs {

EventLane::EventLane(TraceSink& downstream, std::size_t retain)
    : downstream_(&downstream), retain_(retain) {}

void EventLane::record_batch(const TraceEvent* events, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) record(events[i]);
}

void EventLane::feed_downstream() {
  buffer_.for_each_run(
      [this](const TraceEvent* events, std::size_t n) { downstream_->record_batch(events, n); });
  buffer_.clear();
}

EventCollector::EventCollector(TraceSink& downstream, std::size_t lanes) {
  if (lanes == 0) lanes = 1;
  const std::size_t retain = downstream.canonical_capacity();
  lanes_.reserve(lanes);
  for (std::size_t i = 0; i < lanes; ++i) {
    lanes_.push_back(std::unique_ptr<EventLane>(new EventLane(downstream, retain)));
  }
}

EventCollector::~EventCollector() { finish(); }

void EventCollector::finish() {
  if (finished_) return;
  finished_ = true;
  // Canonical feed: lane id order, each lane's events in sequence order —
  // its overwritten events first (they precede the window), then the
  // window oldest-first. Bit-identical to replaying the per-lane streams
  // serially into the sink. Streaming sinks ignore the overwritten counts
  // (a streaming lane never overwrites) and get the partial batches.
  for (const auto& lane : lanes_) {
    lane->downstream_->account_overwritten(lane->overwritten_.data(),
                                           lane->overwritten_.size());
    lane->feed_downstream();
  }
}

ObserverFanOut::ObserverFanOut(const Observer& user, std::size_t producers,
                               std::size_t extra_lanes)
    : user_(user),
      metrics_(user.metrics != nullptr ? producers : 0),
      profilers_(user.profiler != nullptr ? producers : 0) {
  if (user.sink != nullptr) {
    collector_ = std::make_unique<EventCollector>(*user.sink, producers + extra_lanes);
  }
}

Observer ObserverFanOut::producer(std::size_t i) {
  Observer o = user_;
  if (!metrics_.empty()) o.metrics = &metrics_[i];
  if (!profilers_.empty()) o.profiler = &profilers_[i];
  if (collector_) o.sink = &collector_->lane(i);
  return o;
}

void ObserverFanOut::finish() {
  if (collector_) collector_->finish();
  for (const MetricsRegistry& m : metrics_) user_.metrics->merge(m);
  for (const PhaseProfiler& p : profilers_) user_.profiler->merge(p);
}

EventLane* own_lane(TraceSink* sink, std::unique_ptr<EventCollector>& owner) {
  if (sink == nullptr) return nullptr;
  if (auto* const lane = dynamic_cast<EventLane*>(sink)) return lane;
  owner = std::make_unique<EventCollector>(*sink, 1);
  return &owner->lane(0);
}

}  // namespace pulse::obs
