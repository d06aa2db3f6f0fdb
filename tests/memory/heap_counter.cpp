// Counting replacements of every global operator new and delete. Each block
// carries its requested size in a header in front of the returned pointer,
// so a delete knows how many live bytes it frees.

#include "memory/heap_counter.hpp"

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::int64_t> g_peak_live_bytes{0};

// The header keeps the default new alignment; over-aligned blocks put it in
// the last bytes of a whole alignment unit.
std::size_t header_bytes(std::size_t align) {
  return std::max<std::size_t>(align, __STDCPP_DEFAULT_NEW_ALIGNMENT__);
}

void* allocate(std::size_t size, std::size_t align) noexcept {
  const std::size_t header = header_bytes(align);
  void* base = align > __STDCPP_DEFAULT_NEW_ALIGNMENT__
                   ? std::aligned_alloc(align, (size + header + align - 1) / align * align)
                   : std::malloc(size + header);
  if (base == nullptr) return nullptr;
  char* user = static_cast<char*>(base) + header;
  std::memcpy(user - sizeof size, &size, sizeof size);

  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const auto bytes = static_cast<std::int64_t>(size);
  const std::int64_t live = g_live_bytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  std::int64_t peak = g_peak_live_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_live_bytes.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
  return user;
}

void* allocate_or_throw(std::size_t size, std::size_t align) {
  if (void* p = allocate(size, align)) return p;
  throw std::bad_alloc();
}

void release(void* p, std::size_t align) noexcept {
  if (p == nullptr) return;
  char* user = static_cast<char*>(p);
  std::size_t size = 0;
  std::memcpy(&size, user - sizeof size, sizeof size);
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(size), std::memory_order_relaxed);
  std::free(user - header_bytes(align));
}

constexpr std::size_t kDefault = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

}  // namespace

namespace pulse::testutil {

HeapCounts heap_counts() noexcept {
  return {g_allocations.load(std::memory_order_relaxed),
          g_live_bytes.load(std::memory_order_relaxed),
          g_peak_live_bytes.load(std::memory_order_relaxed)};
}

void reset_heap_peak() noexcept {
  g_peak_live_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
}

}  // namespace pulse::testutil

void* operator new(std::size_t size) { return allocate_or_throw(size, kDefault); }
void* operator new[](std::size_t size) { return allocate_or_throw(size, kDefault); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size, kDefault);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return allocate(size, kDefault);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_or_throw(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return allocate(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { release(p, kDefault); }
void operator delete[](void* p) noexcept { release(p, kDefault); }
void operator delete(void* p, std::size_t) noexcept { release(p, kDefault); }
void operator delete[](void* p, std::size_t) noexcept { release(p, kDefault); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p, kDefault); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { release(p, kDefault); }
void operator delete(void* p, std::align_val_t align) noexcept {
  release(p, static_cast<std::size_t>(align));
}
void operator delete[](void* p, std::align_val_t align) noexcept {
  release(p, static_cast<std::size_t>(align));
}
void operator delete(void* p, std::size_t, std::align_val_t align) noexcept {
  release(p, static_cast<std::size_t>(align));
}
void operator delete[](void* p, std::size_t, std::align_val_t align) noexcept {
  release(p, static_cast<std::size_t>(align));
}
void operator delete(void* p, std::align_val_t align, const std::nothrow_t&) noexcept {
  release(p, static_cast<std::size_t>(align));
}
void operator delete[](void* p, std::align_val_t align, const std::nothrow_t&) noexcept {
  release(p, static_cast<std::size_t>(align));
}
