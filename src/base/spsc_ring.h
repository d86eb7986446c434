// Single-producer / single-consumer lock-free ring buffer.
//
// This is the shared-memory message-queue substrate (§3.1 of the paper): the
// kernel side produces messages, exactly one agent consumes them. The
// implementation is a classic bounded ring with monotonically increasing
// head/tail indices and acquire/release synchronization only — no CAS on the
// hot path. Producer and consumer indices live on separate cache lines to
// avoid false sharing, which is what the host nanobenchmarks (Table 3
// companion) measure. The simulator's own queues (MessageQueue) run on one
// thread and do not use it.
#ifndef GHOST_SIM_SRC_BASE_SPSC_RING_H_
#define GHOST_SIM_SRC_BASE_SPSC_RING_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <new>
#include <optional>

#include "src/base/logging.h"

namespace gs {

inline constexpr size_t kCacheLineSize = 64;

template <typename T>
class SpscRing {
 public:
  // `capacity` must be a power of two.
  explicit SpscRing(size_t capacity)
      : capacity_(capacity), mask_(capacity - 1), slots_(new Slot[capacity]) {
    CHECK_GT(capacity, 0u);
    CHECK((capacity & (capacity - 1)) == 0) << "capacity must be a power of two";
  }

  // Producer side. Returns false if the ring is full.
  bool TryPush(T value) {
    const uint64_t tail = tail_.load(std::memory_order_relaxed);
    const uint64_t head = cached_head_;
    if (tail - head >= capacity_) {
      cached_head_ = head_.load(std::memory_order_acquire);
      if (tail - cached_head_ >= capacity_) {
        return false;
      }
    }
    slots_[tail & mask_].value = std::move(value);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }

  // Consumer side. Returns nullopt if the ring is empty.
  std::optional<T> TryPop() {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == cached_tail_) {
      cached_tail_ = tail_.load(std::memory_order_acquire);
      if (head == cached_tail_) {
        return std::nullopt;
      }
    }
    T value = std::move(slots_[head & mask_].value);
    head_.store(head + 1, std::memory_order_release);
    return value;
  }

  // Consumer side peek without consuming. Returns nullptr if empty.
  const T* Peek() const {
    const uint64_t head = head_.load(std::memory_order_relaxed);
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    if (head == tail) {
      return nullptr;
    }
    return &slots_[head & mask_].value;
  }

  size_t capacity() const { return capacity_; }

  // Approximate size; exact when called from either endpoint's thread.
  size_t size() const {
    const uint64_t tail = tail_.load(std::memory_order_acquire);
    const uint64_t head = head_.load(std::memory_order_acquire);
    return static_cast<size_t>(tail - head);
  }

  bool empty() const { return size() == 0; }

 private:
  struct Slot {
    T value;
  };

  const size_t capacity_;
  const size_t mask_;
  std::unique_ptr<Slot[]> slots_;

  alignas(kCacheLineSize) std::atomic<uint64_t> head_{0};
  alignas(kCacheLineSize) uint64_t cached_tail_{0};  // consumer-local
  alignas(kCacheLineSize) std::atomic<uint64_t> tail_{0};
  alignas(kCacheLineSize) uint64_t cached_head_{0};  // producer-local
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_BASE_SPSC_RING_H_
