#pragma once
// The one event transport: one producer-owned lane per emitting thread
// (engine, cluster shard, ensemble worker slot) in front of a downstream
// sink.
//
//   EventLane::record(): push into the lane's own buffer — no lock, no
//   atomic, no thread
//
// Every sink is fed through a collector. The ensemble and cluster runners
// own one with a lane per producer, inside the ObserverFanOut below; the
// sim::MinuteKernel of a lone run (engine, online server, platform) puts an
// attached sink that is not already a lane behind a one-lane collector of
// its own (own_lane()) and finishes it before the run returns.
//
// Each lane buffers into a util::RingBuffer that only its producer touches
// until finish(). What that buffer holds depends on the sink:
//   - Canonical sinks (canonical_capacity() > 0, e.g. RingBufferSink): the
//     buffer is the lane's retention window. It keeps the sink's last
//     canonical_capacity() events; once full, each record overwrites the
//     lane's oldest event and counts that event's type. finish() folds the
//     overwritten counts into the sink and feeds every lane's window in
//     canonical (lane id, then sequence) order. The retained event window,
//     recorded()/dropped() and counts_by_type() are therefore bit-identical
//     to feeding the same per-lane streams serially, for any thread count,
//     and the sink is only ever called from the thread running finish().
//   - Streaming sinks (canonical_capacity() == 0, e.g. JsonlFileSink) must
//     see every event: the buffer is one batch of kStreamBatch events,
//     handed to the sink's record_batch() on the producer thread whenever
//     it fills, and finish() hands over the partial batches in lane id
//     order. With one lane the line order is the emission order; with
//     several, lanes call the sink concurrently (JsonlFileSink's lock
//     serializes the writes) and totals stay exact.
//
// Lifecycle: construct with the downstream sink and the lane count, hand
// lane(i) out as the obs::Observer sink of producer i (one producer at a
// time per lane; moving a lane to another thread needs a happens-before
// edge such as a thread-pool task hand-off), stop all producers, then
// finish(). The destructor calls finish() as a safety net.

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "obs/event.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "util/ring_buffer.hpp"

namespace pulse::obs {

/// Single-producer emission handle: the TraceSink a producer attaches as its
/// Observer sink. record() is the whole hot path — one buffer push, no
/// lock.
///
/// All state is producer-owned until EventCollector::finish(), which must
/// run after the producer has quiesced.
class EventLane final : public TraceSink {
 public:
  /// Events a streaming lane buffers before handing them to the sink.
  static constexpr std::size_t kStreamBatch = 512;

  EventLane(const EventLane&) = delete;
  EventLane& operator=(const EventLane&) = delete;

  void record(const TraceEvent& event) override {
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
  void record_batch(const TraceEvent* events, std::size_t count) override;

 private:
  friend class EventCollector;
  EventLane(TraceSink& downstream, std::size_t retain);

  /// Hands the buffered events to the sink, oldest first, and empties the
  /// buffer.
  void feed_downstream();

  TraceSink* const downstream_;
  const std::size_t retain_;  // canonical window size; 0 for a streaming lane

  util::RingBuffer<TraceEvent> buffer_;
  std::array<std::uint64_t, kEventTypeCount> overwritten_{};  // canonical evictions
};

class EventCollector {
 public:
  /// `downstream` must outlive the collector. One lane per producer.
  EventCollector(TraceSink& downstream, std::size_t lanes);
  ~EventCollector();

  EventCollector(const EventCollector&) = delete;
  EventCollector& operator=(const EventCollector&) = delete;

  [[nodiscard]] EventLane& lane(std::size_t i) { return *lanes_[i]; }

  /// Feeds every lane's buffered events downstream in (lane id, sequence)
  /// order — for canonical sinks after folding in the lane's overwritten
  /// counts. All producers must have quiesced. Idempotent; called by the
  /// destructor.
  void finish();

 private:
  std::vector<std::unique_ptr<EventLane>> lanes_;
  bool finished_ = false;
};

/// A runner's Observer fanned out to its producers (the ensemble's worker
/// slots, the cluster's shards), one writer each: producer i gets its own
/// MetricsRegistry and PhaseProfiler where the user attached one, and lane
/// i of a collector in front of the user's sink, which has `extra_lanes`
/// more (the cluster's coordinator). finish() feeds the collector
/// downstream, then merges the registries and profilers into the user's in
/// producer order, so the totals and the canonical feed do not depend on
/// the thread count.
class ObserverFanOut {
 public:
  /// The user's sink, registry and profiler must outlive the fan-out.
  ObserverFanOut(const Observer& user, std::size_t producers, std::size_t extra_lanes = 0);

  // Producers hold pointers to its registries, profilers and lanes.
  ObserverFanOut(const ObserverFanOut&) = delete;
  ObserverFanOut& operator=(const ObserverFanOut&) = delete;

  /// Producer i's Observer: the user's, each attached member replaced by
  /// producer i's own.
  [[nodiscard]] Observer producer(std::size_t i);

  /// The collector's lane i (i >= producers: an extra lane); null when no
  /// sink is attached.
  [[nodiscard]] EventLane* lane(std::size_t i) {
    return collector_ ? &collector_->lane(i) : nullptr;
  }

  /// Call once, after every producer has quiesced.
  void finish();

 private:
  Observer user_;
  std::vector<MetricsRegistry> metrics_;
  std::vector<PhaseProfiler> profilers_;
  std::unique_ptr<EventCollector> collector_;
};

/// The lane a run's sim::MinuteKernel emits into: null when `sink` is null,
/// `sink` itself when it already is an EventLane (a runner's collector
/// handed it out), otherwise lane 0 of a new one-lane collector in front of
/// `sink`, stored in `owner` — the kernel finishes it before the run
/// returns its result. The run's own emission sites call the returned lane
/// directly (EventLane is final, so the push inlines).
[[nodiscard]] EventLane* own_lane(TraceSink* sink, std::unique_ptr<EventCollector>& owner);

}  // namespace pulse::obs
