#pragma once
// Heap accounting for the test_memory binary. heap_counter.cpp replaces the
// global operator new and delete with versions that count allocations and
// track live and peak live bytes. Only test_memory links it, so no other
// test binary pays for the replacement or sees its numbers.

#include <cstdint>

namespace pulse::testutil {

struct HeapCounts {
  std::uint64_t allocations = 0;  // operator new calls since process start
  std::int64_t live_bytes = 0;    // requested bytes not yet deleted
  std::int64_t peak_live_bytes = 0;
};

[[nodiscard]] HeapCounts heap_counts() noexcept;

/// Restarts the peak at the current live byte count, so the next peak is
/// the high-water mark of whatever runs after this call.
void reset_heap_peak() noexcept;

}  // namespace pulse::testutil
