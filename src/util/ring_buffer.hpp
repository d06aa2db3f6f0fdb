#pragma once
// Growable single-ended ring buffer (FIFO): push_back at the tail, pop_front
// at the head, O(1) random access by logical index. Capacity grows by
// doubling, so a producer whose live size is bounded (every streaming
// predictor window and every obs::EventLane buffer in this repository) stops
// allocating once the high-water mark is reached — the property the
// serve-mode allocation test (tests/memory/serve_allocation_test.cpp)
// checks. Unlike std::deque, a steady-state push/pop cycle never touches
// the allocator.
//
// Not thread-safe; each owner drives its own instance.

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

namespace pulse::util {

template <typename T>
class RingBuffer {
 public:
  RingBuffer() = default;

  /// Pre-sizes the storage so pushes up to `capacity` live elements never
  /// allocate.
  explicit RingBuffer(std::size_t capacity) { reserve(capacity); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return storage_.size(); }

  /// Element at logical index i (0 = oldest). No bounds check beyond the
  /// mask; callers index within [0, size()).
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return storage_[(head_ + i) & mask_];
  }
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return storage_[(head_ + i) & mask_];
  }

  [[nodiscard]] const T& front() const noexcept { return (*this)[0]; }
  [[nodiscard]] const T& back() const noexcept { return (*this)[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ == storage_.size()) grow();
    storage_[(head_ + size_) & mask_] = value;
    ++size_;
  }

  void pop_front() noexcept {
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void clear() noexcept {
    head_ = 0;
    size_ = 0;
  }

  /// Ensures capacity for at least `n` live elements without reallocation.
  void reserve(std::size_t n) {
    if (n <= storage_.size()) return;
    std::size_t cap = storage_.empty() ? 8 : storage_.size();
    while (cap < n) cap <<= 1;
    relocate(cap);
  }

  /// Calls f(first, count) over the live elements, oldest first, as at most
  /// two contiguous runs (the second only when the live range wraps).
  template <typename F>
  void for_each_run(F&& f) const {
    if (size_ == 0) return;
    const std::size_t first = std::min(size_, storage_.size() - head_);
    f(storage_.data() + head_, first);
    if (first < size_) f(storage_.data(), size_ - first);
  }

  /// Copies the live elements, oldest first, into `out` (cleared first).
  void copy_to(std::vector<T>& out) const {
    out.clear();
    out.reserve(size_);
    for (std::size_t i = 0; i < size_; ++i) out.push_back((*this)[i]);
  }

 private:
  void grow() { relocate(storage_.empty() ? 8 : storage_.size() * 2); }

  void relocate(std::size_t cap) {
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) next[i] = std::move((*this)[i]);
    storage_ = std::move(next);
    head_ = 0;
    mask_ = cap - 1;  // cap is always a power of two
  }

  std::vector<T> storage_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

}  // namespace pulse::util
