#pragma once
// Lock-free attached-mode emission: per-lane SPSC rings drained by a
// background collector thread that owns the downstream sink.
//
// The mutex-per-record() inner path of the provided sinks costs ~half the
// engine's throughput once attached (53–55% in bench_obs_overhead before
// the collector). The collector moves that cost off the simulation thread:
//
//   producer (engine / shard / ensemble slot)          collector thread
//   ─────────────────────────────────────────          ────────────────
//   EventLane::record():                               drain loop:
//     deterministic sampling check (counter-hash)        pop_batch() per lane
//     SpscRing::try_push (wait-free when not full)       forward / retain
//
// Determinism contract:
//   - The transport is lossless: a full ring back-pressures the producer
//     instead of dropping — a short spin, then the producer drains its own
//     lane under a per-lane consumer lock. Progress therefore never
//     depends on the collector thread being scheduled (it is a latency
//     optimization, not a correctness dependency — single-core machines
//     stay fast), and event totals and per-type counts are exact for any
//     thread count.
//   - Sampling is a pure function of (sample_seed, event type, stream key,
//     per-type ordinal) via util::hash_u64, so the sampled stream is
//     seed- and thread-count-invariant — never timing-dependent. Events
//     dropped by sampling are counted per lane, separately from any
//     downstream ring overwrite.
//   - For retained sinks (RingBufferSink: DrainMode::kCanonical) there is
//     no collector thread at all: the lane ring IS the bounded retention
//     window. It is sized to hold at least the sink's canonical capacity;
//     when it fills, the producer discards its own oldest events in place
//     (counting their types) and finish() feeds each ring downstream in
//     canonical (lane id, then sequence) order. The retained event window,
//     recorded()/dropped() and counts_by_type() are therefore bit-identical
//     to feeding the same per-lane streams serially — independent of drain
//     timing and thread count. With one lane this is exactly the historical
//     direct-attach behaviour.
//   - Streaming sinks (JsonlFileSink) must see every event, so they get the
//     background collector thread, which drains every lane in batches and
//     owns the downstream sink; with one lane the line order is the
//     emission order, with several lanes batches interleave at drain-cycle
//     granularity (totals stay exact).
//
// Lifecycle: construct with the downstream sink and the lane count, hand
// lane(i) out as the obs::Observer sink of producer i (one producer thread
// per lane — the SPSC contract), stop all producers, then finish(). The
// destructor calls finish() as a safety net.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/event.hpp"
#include "obs/spsc_ring.hpp"
#include "obs/trace_sink.hpp"

namespace pulse::obs {

class EventCollector;

/// Attached-mode observability tuning: transport sizing plus the
/// deterministic sampling knob.
struct ObsConfig {
  /// Per-lane SPSC ring slots (rounded up to a power of two). A full ring
  /// back-pressures the producer; size it to the drain batch times a small
  /// multiple so steady-state emission never stalls. For canonical sinks
  /// the collector raises this to the sink's retained capacity plus one
  /// drain batch, so the ring can double as the retention window.
  std::size_t ring_capacity = 4096;

  /// Events the collector moves per lane per sweep.
  std::size_t drain_batch = 512;

  /// Seed of the sampling hash stream (independent of every engine seed).
  std::uint64_t sample_seed = 0x0b5'5eed;

  /// Per-event-type sampling stride: keep ~1/sample_every[type] events,
  /// chosen by counter-hash so the kept subset is deterministic. 1 (the
  /// default) keeps everything. Use set_sample_every() to adjust.
  std::array<std::uint32_t, kEventTypeCount> sample_every{};

  ObsConfig() { sample_every.fill(1); }

  ObsConfig& set_sample_every(EventType type, std::uint32_t every) noexcept {
    sample_every[static_cast<std::size_t>(type)] = every == 0 ? 1 : every;
    return *this;
  }
};

/// Single-producer emission handle: the TraceSink a producer thread attaches
/// as its Observer sink. record() is the whole hot path — one sampling
/// branch and one SPSC push, no lock, no allocation.
///
/// Accounting fields are producer-owned plain integers: read them (or the
/// collector's sums) only after the producer has quiesced — joining the
/// producer thread or calling EventCollector::finish() both order the reads.
class EventLane final : public TraceSink {
 public:
  void record(const TraceEvent& event) override;

  /// Starts a new deterministic sampling stream: resets the per-type
  /// ordinals and keys subsequent sampling decisions on `key`. Call before
  /// each logical event stream (e.g. per ensemble run, keyed by run index)
  /// so sampling decisions depend on the stream, never on which worker
  /// slot or thread happens to replay it.
  void begin_stream(std::uint64_t key) noexcept {
    stream_key_ = key;
    ordinal_.fill(0);
  }

  [[nodiscard]] std::size_t id() const noexcept { return id_; }

  /// Events accepted into the ring (post-sampling).
  [[nodiscard]] std::uint64_t produced() const noexcept { return produced_; }

  /// Events dropped by the sampling knob (deterministic, counted per type).
  [[nodiscard]] std::uint64_t sampled_out() const noexcept { return sampled_out_total_; }
  [[nodiscard]] const std::array<std::uint64_t, kEventTypeCount>& sampled_out_by_type()
      const noexcept {
    return sampled_out_;
  }

  /// Times record() found the ring full and had to self-drain the lane
  /// (a transport perf signal, never a drop).
  [[nodiscard]] std::uint64_t stalls() const noexcept { return stalls_; }

 private:
  friend class EventCollector;
  EventLane(EventCollector* owner, std::size_t id, const ObsConfig& config);

  EventCollector* const owner_;
  SpscRing<TraceEvent> ring_;
  const std::size_t id_;
  const std::uint64_t sample_seed_;
  std::array<std::uint32_t, kEventTypeCount> every_;
  bool sampling_active_ = false;  // any every_[t] > 1

  // Producer-owned state (single-threaded by the SPSC contract).
  std::uint64_t stream_key_;
  std::array<std::uint64_t, kEventTypeCount> ordinal_{};
  std::array<std::uint64_t, kEventTypeCount> sampled_out_{};
  std::uint64_t sampled_out_total_ = 0;
  std::uint64_t produced_ = 0;
  std::uint64_t stalls_ = 0;
};

class EventCollector {
 public:
  /// `downstream` must outlive the collector. One lane per producer thread;
  /// the drain thread starts immediately.
  EventCollector(TraceSink& downstream, std::size_t lanes, ObsConfig config = {});
  ~EventCollector();

  EventCollector(const EventCollector&) = delete;
  EventCollector& operator=(const EventCollector&) = delete;

  [[nodiscard]] EventLane& lane(std::size_t i) { return lanes_[i]->lane; }
  [[nodiscard]] std::size_t lane_count() const noexcept { return lanes_.size(); }

  /// Joins the drain thread, drains every ring to empty, and — for
  /// canonical sinks — feeds the retained per-lane tails downstream in
  /// (lane id, sequence) order. All producers must have quiesced.
  /// Idempotent; called by the destructor.
  void finish();

  // Collector-wide sums of the per-lane accounting (valid after finish,
  // or once every producer has quiesced).
  [[nodiscard]] std::uint64_t produced() const noexcept;
  [[nodiscard]] std::uint64_t sampled_out() const noexcept;
  [[nodiscard]] std::uint64_t stalls() const noexcept;

 private:
  friend class EventLane;  // the full-ring self-drain path

  /// One lane plus its discard accounting (canonical mode: types of the
  /// events the producer overwrote in place when the ring filled).
  /// `drain_mutex` serializes the consumer side of the lane between the
  /// streaming collector thread and a self-draining producer; it is
  /// uncontended except on the rare full-ring path, and unused in
  /// canonical mode (the producer is the only consumer until finish()).
  struct LaneState {
    LaneState(EventCollector* owner, std::size_t id, const ObsConfig& config)
        : lane(owner, id, config) {}

    EventLane lane;
    std::mutex drain_mutex;
    std::array<std::uint64_t, kEventTypeCount> overwritten{};
    bool overwrote_any = false;
  };

  void drain_loop();
  std::size_t sweep_once();
  std::size_t drain_lane_locked(LaneState& state, TraceEvent* scratch, std::size_t scratch_size);
  /// Producer-side reaction to a full lane ring: canonical mode discards
  /// the lane's oldest events in place (counting their types), streaming
  /// mode drains the lane to the sink under the lane lock.
  void self_drain(std::size_t lane_id);

  TraceSink* downstream_;
  ObsConfig config_;
  bool canonical_;
  std::size_t tail_capacity_ = 0;
  std::vector<std::unique_ptr<LaneState>> lanes_;
  std::vector<TraceEvent> batch_;  // drain-thread scratch
  std::atomic<bool> stop_{false};
  std::thread drain_thread_;
  bool finished_ = false;
};

}  // namespace pulse::obs
