#include "serve/server.hpp"

#include <limits>
#include <stdexcept>
#include <string>

namespace pulse::serve {

OnlineServer::OnlineServer(const sim::Deployment& deployment, sim::KeepAlivePolicy& policy,
                           ServeConfig config)
    : config_(config), buffer_(deployment.function_count(), config.horizon) {
  if (config_.horizon <= 0) {
    throw std::invalid_argument("OnlineServer: horizon must be positive");
  }
  run_ = std::make_unique<sim::SteppedRun>(deployment, buffer_, config_.engine, policy);
}

void OnlineServer::ingest(const StreamEvent& event) {
  ++stats_.events;
  switch (event.kind) {
    case EventKind::kInvocation: {
      if (event.minute < run_->next_minute()) {
        ++stats_.dropped_late;
        if (config_.strict) {
          throw std::runtime_error("OnlineServer: invocation for already-simulated minute " +
                                   std::to_string(event.minute));
        }
        return;
      }
      // The last clause keeps the minute's uint32 cell from saturating, so
      // stats_.invocations stays the sum of what the buffer holds.
      if (event.minute >= config_.horizon || event.function >= buffer_.function_count() ||
          event.count > std::numeric_limits<std::uint32_t>::max() -
                            buffer_.count(event.function, event.minute)) {
        ++stats_.dropped_out_of_range;
        if (config_.strict) {
          throw std::runtime_error(
              "OnlineServer: invocation outside horizon/deployment or past 2^32 - 1 per minute");
        }
        return;
      }
      buffer_.add_invocations(event.function, event.minute, event.count);
      ++stats_.invocation_events;
      stats_.invocations += event.count;
      return;
    }
    case EventKind::kTick: {
      if (event.minute < run_->next_minute()) {
        // A tick for an already-closed minute carries no new information.
        ++stats_.dropped_late;
        if (config_.strict) {
          throw std::runtime_error("OnlineServer: tick regressed to minute " +
                                   std::to_string(event.minute));
        }
        return;
      }
      ++stats_.ticks;
      // Closes minutes up to and including event.minute; comparing before
      // adding one keeps a tick at the largest minute from overflowing.
      run_->run_until(event.minute >= config_.horizon ? config_.horizon : event.minute + 1);
      return;
    }
    case EventKind::kEnd:
      return;
  }
}

const ServeStats& OnlineServer::drain(InvocationSource& source) {
  StreamEvent event;
  while (source.next(event)) {
    ingest(event);
    if (event.kind == EventKind::kEnd) break;
  }
  return stats_;
}

sim::RunResult OnlineServer::finish() { return run_->finish_at(run_->next_minute()); }

}  // namespace pulse::serve
