#pragma once
// Attached-mode event transport: one producer-owned lane per emitting
// thread (engine, cluster shard, ensemble worker slot) in front of a shared
// downstream sink.
//
//   EventLane::record(): push into the lane's own buffer — no lock, no
//   atomic, no thread
//
// Each lane buffers into a util::RingBuffer that only its producer touches
// until finish(). What that buffer holds depends on the sink:
//   - Canonical sinks (RingBufferSink: DrainMode::kCanonical): the buffer is
//     the lane's retention window. It keeps the sink's last
//     canonical_capacity() events; once full, each record overwrites the
//     lane's oldest event and counts that event's type. finish() folds the
//     overwritten counts into the sink and feeds every lane's window in
//     canonical (lane id, then sequence) order. The retained event window,
//     recorded()/dropped() and counts_by_type() are therefore bit-identical
//     to feeding the same per-lane streams serially, for any thread count.
//     With one lane this is exactly direct attachment.
//   - Streaming sinks (JsonlFileSink: DrainMode::kStream) must see every
//     event: the buffer is one batch of kStreamBatch events, handed to the
//     sink's record_batch() on the producer thread whenever it fills, and
//     finish() hands over the partial batches in lane id order. With one
//     lane the line order is the emission order; with several, lines
//     interleave in whole batches (the sink's lock serializes them) and
//     totals stay exact.
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
#include "obs/trace_sink.hpp"
#include "util/ring_buffer.hpp"

namespace pulse::obs {

/// Single-producer emission handle: the TraceSink a producer attaches as its
/// Observer sink. record() is the whole hot path — one buffer push, no
/// lock.
///
/// All state is producer-owned: read the accounting (or the collector's
/// sums) only after the producer has quiesced — joining the producer thread
/// or calling EventCollector::finish() both order the reads.
class EventLane final : public TraceSink {
 public:
  /// Events a streaming lane buffers before handing them to the sink.
  static constexpr std::size_t kStreamBatch = 512;

  EventLane(const EventLane&) = delete;
  EventLane& operator=(const EventLane&) = delete;

  void record(const TraceEvent& event) override;

  /// Events recorded into the lane.
  [[nodiscard]] std::uint64_t produced() const noexcept { return produced_; }

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
  std::uint64_t produced_ = 0;
};

class EventCollector {
 public:
  /// `downstream` must outlive the collector. One lane per producer.
  EventCollector(TraceSink& downstream, std::size_t lanes);
  ~EventCollector();

  EventCollector(const EventCollector&) = delete;
  EventCollector& operator=(const EventCollector&) = delete;

  [[nodiscard]] EventLane& lane(std::size_t i) { return *lanes_[i]; }
  [[nodiscard]] std::size_t lane_count() const noexcept { return lanes_.size(); }

  /// Feeds every lane's buffered events downstream in (lane id, sequence)
  /// order — for canonical sinks after folding in the lane's overwritten
  /// counts. All producers must have quiesced. Idempotent; called by the
  /// destructor.
  void finish();

  // Collector-wide sums of the per-lane accounting (valid after finish,
  // or once every producer has quiesced).
  [[nodiscard]] std::uint64_t produced() const noexcept;

 private:
  std::vector<std::unique_ptr<EventLane>> lanes_;
  bool finished_ = false;
};

}  // namespace pulse::obs
