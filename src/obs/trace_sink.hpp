#pragma once
// Event sinks: where TraceEvents go when observability is enabled.
//
// The engine and the policies never talk to a concrete sink — they emit
// through obs::Observer, which is a null check when nothing is attached.
// Both provided implementations are internally synchronized so one sink can
// be shared across ensemble worker threads; the cheap attached path,
// however, is to put an obs::EventCollector in front (see collector.hpp):
// each producer then buffers into its own lane, and the sink's lock is
// taken once per batch of events through record_batch(), never per event
// on the simulation hot path.

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "obs/event.hpp"

namespace pulse::obs {

class TraceSink {
 public:
  virtual ~TraceSink() = default;

  /// How an EventCollector hands lane events to this sink.
  ///   kStream    — every event, in batches from the producer thread as
  ///                each lane's batch fills (file/streaming sinks; line
  ///                order across lanes is batch order).
  ///   kCanonical — the collector retains bounded per-lane tails and feeds
  ///                the sink exactly once, at finish(), in canonical
  ///                (lane id, sequence) order, so the retained window and
  ///                all drop accounting are independent of thread timing.
  enum class DrainMode : std::uint8_t { kStream, kCanonical };

  /// Records one event. Must be safe to call from multiple threads.
  virtual void record(const TraceEvent& event) = 0;

  /// Records `count` events in one call (the collector's path). The
  /// default loops over record(); synchronized sinks override it to take
  /// their lock once per batch.
  virtual void record_batch(const TraceEvent* events, std::size_t count) {
    for (std::size_t i = 0; i < count; ++i) record(events[i]);
  }

  [[nodiscard]] virtual DrainMode drain_mode() const noexcept { return DrainMode::kStream; }

  /// Retained-window capacity a canonical collector should mirror per lane.
  /// Only meaningful when drain_mode() is kCanonical.
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
/// counts what it had to drop. The cheap always-on-capable sink.
class RingBufferSink final : public TraceSink {
 public:
  explicit RingBufferSink(std::size_t capacity = 4096);

  void record(const TraceEvent& event) override;
  void record_batch(const TraceEvent* events, std::size_t count) override;

  /// Canonical drain: an EventCollector feeds this sink once, at finish, in
  /// (lane id, sequence) order — deterministic for any thread count.
  [[nodiscard]] DrainMode drain_mode() const noexcept override {
    return DrainMode::kCanonical;
  }
  [[nodiscard]] std::size_t canonical_capacity() const noexcept override {
    return capacity_;
  }
  void account_overwritten(const std::uint64_t* by_type, std::size_t type_count) override;

  /// All retained events, oldest first.
  [[nodiscard]] std::vector<TraceEvent> events() const;

  /// Total events ever recorded (retained + overwritten).
  [[nodiscard]] std::uint64_t recorded() const;

  /// Events overwritten because the buffer was full: recorded() minus the
  /// retained ones, including those a collector lane overwrote.
  [[nodiscard]] std::uint64_t dropped() const;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Per-type counts over every event ever recorded (index = EventType).
  [[nodiscard]] std::vector<std::uint64_t> counts_by_type() const;

  void clear();

 private:
  void record_locked(const TraceEvent& event);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<TraceEvent> buffer_;  // ring storage, wraps at capacity_
  std::size_t head_ = 0;            // next write position once full
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
/// Formatting happens outside the lock (per-call stack buffer); the lock
/// only covers the fwrite, and record_batch() formats up to 64 lines into
/// one buffer and writes them with a single fwrite.
///
/// Write errors never throw from record()/record_batch() (they run on
/// producer threads): a failed write sets a sticky failure flag, its lines
/// are not counted, and flush() reports the failure.
class JsonlFileSink final : public TraceSink {
 public:
  /// Opens `path` for writing (truncates). Throws std::runtime_error when
  /// the file cannot be opened.
  explicit JsonlFileSink(const std::string& path);
  ~JsonlFileSink() override;

  JsonlFileSink(const JsonlFileSink&) = delete;
  JsonlFileSink& operator=(const JsonlFileSink&) = delete;

  void record(const TraceEvent& event) override;
  void record_batch(const TraceEvent* events, std::size_t count) override;

  /// Lines handed to the file without a write error (lines still buffered
  /// when a later flush() fails are counted but lost).
  [[nodiscard]] std::uint64_t lines_written() const;

  /// Flushes buffered output to the OS. Throws std::runtime_error naming the
  /// path if this flush or any earlier write failed.
  void flush();

 private:
  /// Writes `n` bytes holding `lines` lines; caller holds mutex_.
  void write_locked(const char* data, std::size_t n, std::size_t lines);

  const std::string path_;
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::uint64_t lines_ = 0;
  bool failed_ = false;
};

}  // namespace pulse::obs
