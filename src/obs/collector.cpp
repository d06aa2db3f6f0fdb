#include "obs/collector.hpp"

namespace pulse::obs {

EventLane::EventLane(TraceSink& downstream, std::size_t retain)
    : downstream_(&downstream), retain_(retain) {}

void EventLane::record(const TraceEvent& event) {
  ++produced_;
  if (retain_ == 0) {
    buffer_.push_back(event);
    if (buffer_.size() == kStreamBatch) feed_downstream();
    return;
  }
  // Retention window full: the oldest event is exactly what the sink's own
  // window would evict, so drop it here and keep only its type count.
  if (buffer_.size() == retain_) {
    ++overwritten_[static_cast<std::size_t>(buffer_.front().type)];
    buffer_.pop_front();
  }
  buffer_.push_back(event);
}

void EventLane::feed_downstream() {
  buffer_.for_each_run(
      [this](const TraceEvent* events, std::size_t n) { downstream_->record_batch(events, n); });
  buffer_.clear();
}

EventCollector::EventCollector(TraceSink& downstream, std::size_t lanes) {
  if (lanes == 0) lanes = 1;
  std::size_t retain = 0;
  if (downstream.drain_mode() == TraceSink::DrainMode::kCanonical) {
    retain = downstream.canonical_capacity();
    if (retain == 0) retain = 1;
  }
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

std::uint64_t EventCollector::produced() const noexcept {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->produced();
  return total;
}

}  // namespace pulse::obs
