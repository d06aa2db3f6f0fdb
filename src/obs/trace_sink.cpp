#include "obs/trace_sink.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

namespace pulse::obs {

const char* to_string(EventType type) noexcept {
  switch (type) {
    case EventType::kColdStart: return "cold_start";
    case EventType::kWarmStart: return "warm_start";
    case EventType::kEviction: return "eviction";
    case EventType::kCrashEviction: return "crash_eviction";
    case EventType::kDowngrade: return "downgrade";
    case EventType::kFault: return "fault";
    case EventType::kCapacityPressure: return "capacity_pressure";
    case EventType::kPolicyDecision: return "policy_decision";
    case EventType::kPrewarm: return "prewarm";
    case EventType::kRebalance: return "rebalance";
    case EventType::kShardCrash: return "shard_crash";
    case EventType::kShardRecover: return "shard_recover";
    case EventType::kMinuteSample: return "minute_sample";
  }
  return "?";
}

RingBufferSink::RingBufferSink(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity), type_counts_(kEventTypeCount, 0) {}

void RingBufferSink::record_batch(const TraceEvent* events, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    ++recorded_;
    ++type_counts_[static_cast<std::size_t>(events[i].type)];
    if (window_.size() == capacity_) window_.pop_front();
    window_.push_back(events[i]);
  }
}

void RingBufferSink::account_overwritten(const std::uint64_t* by_type,
                                         std::size_t type_count) {
  if (type_count > type_counts_.size()) type_count = type_counts_.size();
  for (std::size_t i = 0; i < type_count; ++i) {
    type_counts_[i] += by_type[i];
    recorded_ += by_type[i];
  }
}

std::vector<TraceEvent> RingBufferSink::events() const {
  std::vector<TraceEvent> out;
  window_.copy_to(out);
  return out;
}

void RingBufferSink::clear() {
  window_.clear();
  recorded_ = 0;
  type_counts_.assign(kEventTypeCount, 0);
}

std::size_t format_event_jsonl(const TraceEvent& event, char* buf, std::size_t cap) {
  std::size_t n = static_cast<std::size_t>(
      std::snprintf(buf, cap, "{\"type\":\"%s\",\"minute\":%lld", to_string(event.type),
                    static_cast<long long>(event.minute)));
  if (event.function != TraceEvent::kNoFunction) {
    n += static_cast<std::size_t>(
        std::snprintf(buf + n, cap - n, ",\"function\":%zu", event.function));
  }
  if (event.variant >= 0) {
    n += static_cast<std::size_t>(
        std::snprintf(buf + n, cap - n, ",\"variant\":%d", event.variant));
  }
  n += static_cast<std::size_t>(std::snprintf(buf + n, cap - n,
                                              ",\"value\":%.17g,\"detail\":\"%s\"}\n",
                                              event.value, event.detail));
  return n;
}

JsonlFileSink::JsonlFileSink(const std::string& path)
    : path_(path), file_(std::fopen(path.c_str(), "w")) {
  if (file_ == nullptr) {
    throw std::runtime_error("JsonlFileSink: cannot open " + path + " for writing");
  }
}

JsonlFileSink::~JsonlFileSink() {
  // A destructor must not throw; callers that need to know whether the
  // file is complete call flush() first, which reports every failure.
  if (file_ != nullptr) (void)std::fclose(file_);
}

void JsonlFileSink::record_batch(const TraceEvent* events, std::size_t count) {
  // One buffered chunk, one fwrite, one lock acquisition per chunk. 64 lines
  // per chunk keeps the buffer on the stack.
  constexpr std::size_t kChunkLines = 64;
  char chunk[kChunkLines * kJsonlMaxLine];
  std::size_t i = 0;
  while (i < count) {
    const std::size_t lines = std::min(kChunkLines, count - i);
    std::size_t n = 0;
    for (std::size_t j = 0; j < lines; ++j) {
      n += format_event_jsonl(events[i + j], chunk + n, kJsonlMaxLine);
    }
    i += lines;
    std::lock_guard lock(mutex_);
    if (std::fwrite(chunk, 1, n, file_) == n) {
      lines_ += lines;
    } else {
      failed_ = true;
    }
  }
}

std::uint64_t JsonlFileSink::lines_written() const {
  std::lock_guard lock(mutex_);
  return lines_;
}

void JsonlFileSink::flush() {
  std::lock_guard lock(mutex_);
  if (std::fflush(file_) != 0) failed_ = true;
  if (failed_) throw std::runtime_error("JsonlFileSink: write to " + path_ + " failed");
}

}  // namespace pulse::obs
