#pragma once
// Event sinks: where TraceEvents go when observability is enabled.
//
// The engine and the policies never talk to a concrete sink — they emit
// through obs::Observer, which is a null check when nothing is attached.
// Every run feeds its sink through an obs::EventCollector (collector.hpp):
// a lone engine, server or platform simulator puts an attached sink behind
// a one-lane collector of its own, and the ensemble and cluster runners
// hand each producer a lane of theirs. A sink therefore only ever sees
// record_batch() and account_overwritten() from a collector:
//   - a canonical sink (canonical_capacity() > 0) is fed once, by one
//     collector, at its finish(), from one thread;
//   - a streaming sink (canonical_capacity() == 0) receives each lane's
//     batches on that lane's producer thread, so batches from several
//     lanes may arrive concurrently.

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event.hpp"
#include "util/ring_buffer.hpp"

namespace pulse::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// Records `count` events, oldest first: the one entry a collector uses.
  virtual void record_batch(const TraceEvent* events, std::size_t count) = 0;

  /// Records one event as a batch of one. An EventLane overrides it with its
  /// buffer push (the emission hot path); tests that attach a sink straight
  /// to a policy reach the sink through it.
  virtual void record(const TraceEvent& event) { record_batch(&event, 1); }

  /// Retained window a collector mirrors per lane. A sink is canonical
  /// exactly when this is > 0: the collector keeps each lane's last
  /// canonical_capacity() events and feeds them once, at finish(), in
  /// (lane id, sequence) order, so the retained window and all drop
  /// accounting are independent of thread timing. A streaming sink (0) gets
  /// every event, in batches from the producer threads.
  [[nodiscard]] virtual std::size_t canonical_capacity() const noexcept { return 0; }

  /// Folds events that were overwritten upstream (a canonical collector's
  /// bounded per-lane tails) into this sink's totals without storing them:
  /// `by_type[t]` events of type t were recorded and already dropped.
  /// Default ignores them (streaming sinks saw every event).
  virtual void account_overwritten(const std::uint64_t* by_type, std::size_t type_count) {
    (void)by_type;
    (void)type_count;
  }
};

/// Fixed-capacity ring buffer: keeps the most recent `capacity` events and
/// counts what it had to drop. Canonical: a collector feeds it from one
/// thread, once, so it needs no lock; read it after the run has returned.
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity = 4096);

  void record_batch(const TraceEvent* events, std::size_t count) override;

  [[nodiscard]] std::size_t canonical_capacity() const noexcept override {
    return capacity_;
  }
  void account_overwritten(const std::uint64_t* by_type, std::size_t type_count) override;

  /// All retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Total events ever recorded (retained + overwritten).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }

  /// Events overwritten because the buffer was full: recorded() minus the
  /// retained ones, including those a collector lane overwrote.
  [[nodiscard]] std::uint64_t dropped() const noexcept { return recorded_ - window_.size(); }

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Per-type counts over every event ever recorded (index = EventType).
  [[nodiscard]] std::vector<std::uint64_t> counts_by_type() const { return type_counts_; }

  void clear();

 private:
  const std::size_t capacity_;
  util::RingBuffer<TraceEvent> window_;  // the newest <= capacity_ events
  std::uint64_t recorded_ = 0;
  std::vector<std::uint64_t> type_counts_;
};

/// Formats `event` as its JSONL line (without trailing newline) into `buf`.
/// Returns the length written; `cap` must be >= kJsonlMaxLine.
inline constexpr std::size_t kJsonlMaxLine = 256;
std::size_t format_event_jsonl(const TraceEvent& event, char* buf, std::size_t cap);

/// Streams every event as one JSON object per line (JSONL). Schema:
///   {"type":"cold_start","minute":17,"function":3,"variant":2,
///    "value":4,"detail":""}
/// `function` is omitted for aggregate events and `variant` when -1.
///
/// record_batch() formats up to 64 lines into one stack buffer outside the
/// lock and writes them with a single fwrite under it.
///
/// Write errors never throw from record_batch() (it runs on producer
/// threads): a failed write sets a sticky failure flag, its lines are not
/// counted, and flush() reports the failure.
class JsonlFileSink final : public TraceSink {
 public:
  /// Opens `path` for writing (truncates). Throws std::runtime_error when
  /// the file cannot be opened.
  explicit JsonlFileSink(const std::string& path);
  ~JsonlFileSink() override;

  JsonlFileSink(const JsonlFileSink&) = delete;
  JsonlFileSink& operator=(const JsonlFileSink&) = delete;

  void record_batch(const TraceEvent* events, std::size_t count) override;

  /// Lines handed to the file without a write error (lines still buffered
  /// when a later flush() fails are counted but lost).
  [[nodiscard]] std::uint64_t lines_written() const;

  /// Flushes buffered output to the OS. Throws std::runtime_error naming the
  /// path if this flush or any earlier write failed.
  void flush();

 private:
  const std::string path_;
  // Streaming: the lanes of an ensemble or cluster each hand over their
  // full batches on their own producer thread, so record_batch() runs
  // concurrently. The lock keeps each 64-line chunk contiguous in the file
  // and guards the line count and the failure flag.
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::uint64_t lines_ = 0;
  bool failed_ = false;
};

}  // namespace pulse::obs
