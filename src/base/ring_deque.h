// RingDeque<T>: a growable power-of-2 ring buffer with deque semantics.
//
// std::deque allocates its elements in heap blocks (~512B each in libstdc++)
// and frees them as the queue drains, so a runqueue that oscillates around
// empty — the common case for per-CPU queues — pays a malloc/free pair per
// oscillation plus a double indirection per access. RingDeque keeps one flat
// power-of-2 array that only ever grows, so steady-state push/pop is
// index arithmetic on contiguous memory.
#ifndef GHOST_SIM_SRC_BASE_RING_DEQUE_H_
#define GHOST_SIM_SRC_BASE_RING_DEQUE_H_

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/logging.h"

namespace gs {

template <typename T>
class RingDeque {
 public:
  RingDeque() = default;

  void push_back(T value) {
    GrowIfFull();
    slots_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  void push_front(T value) {
    GrowIfFull();
    head_ = (head_ + mask_) & mask_;  // head - 1, wrapped
    slots_[head_] = std::move(value);
    ++size_;
  }

  void pop_front() {
    DCHECK(size_ > 0);
    Release(slots_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  void pop_back() {
    DCHECK(size_ > 0);
    Release(slots_[(head_ + size_ - 1) & mask_]);
    --size_;
  }

  T& front() {
    DCHECK(size_ > 0);
    return slots_[head_];
  }
  const T& front() const {
    DCHECK(size_ > 0);
    return slots_[head_];
  }
  T& back() {
    DCHECK(size_ > 0);
    return slots_[(head_ + size_ - 1) & mask_];
  }
  const T& back() const {
    DCHECK(size_ > 0);
    return slots_[(head_ + size_ - 1) & mask_];
  }

  T& operator[](size_t i) {
    DCHECK(i < size_);
    return slots_[(head_ + i) & mask_];
  }
  const T& operator[](size_t i) const {
    DCHECK(i < size_);
    return slots_[(head_ + i) & mask_];
  }

  // Removes the element at logical index i, preserving relative order of the
  // rest (shifts the shorter side). O(n) — used for rare mid-queue removals
  // (task death while queued), not hot-path pops.
  void erase_at(size_t i) {
    DCHECK(i < size_);
    if (i < size_ - i - 1) {
      for (size_t j = i; j > 0; --j) {
        (*this)[j] = std::move((*this)[j - 1]);
      }
      pop_front();
    } else {
      for (size_t j = i; j + 1 < size_; ++j) {
        (*this)[j] = std::move((*this)[j + 1]);
      }
      pop_back();
    }
  }

  // Removes the first element equal to `value`; returns whether one was found.
  bool remove(const T& value) {
    for (size_t i = 0; i < size_; ++i) {
      if ((*this)[i] == value) {
        erase_at(i);
        return true;
      }
    }
    return false;
  }

  void clear() {
    for (size_t i = 0; i < size_; ++i) {
      Release(slots_[(head_ + i) & mask_]);
    }
    head_ = 0;
    size_ = 0;
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  // Just enough iterator to support range-for, std::find, and erase(it).
  template <typename Deque, typename Ref>
  class Iter {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = T;
    using difference_type = std::ptrdiff_t;
    using pointer = std::remove_reference_t<Ref>*;
    using reference = Ref;

    Iter(Deque* dq, size_t i) : dq_(dq), i_(i) {}
    Ref operator*() const { return (*dq_)[i_]; }
    Iter& operator++() {
      ++i_;
      return *this;
    }
    bool operator==(const Iter& other) const { return i_ == other.i_; }
    bool operator!=(const Iter& other) const { return i_ != other.i_; }
    size_t index() const { return i_; }

   private:
    Deque* dq_;
    size_t i_;
  };
  using iterator = Iter<RingDeque, T&>;
  using const_iterator = Iter<const RingDeque, const T&>;

  iterator begin() { return iterator(this, 0); }
  iterator end() { return iterator(this, size_); }
  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size_); }

  iterator erase(iterator it) {
    erase_at(it.index());
    return iterator(this, it.index());
  }

 private:
  // Lets go of whatever a vacated slot owns, so it does not outlive its
  // removal. A trivially copyable T owns nothing, so its slot is left as is:
  // rewriting it would cost a store per pop (a 104-byte Message, say) for no
  // observable effect.
  static void Release(T& slot) {
    if constexpr (!std::is_trivially_copyable_v<T>) {
      slot = T{};
    }
  }

  void GrowIfFull() {
    if (size_ < slots_.size()) {
      return;
    }
    const size_t new_capacity = slots_.empty() ? 8 : slots_.size() * 2;
    std::vector<T> grown(new_capacity);
    for (size_t i = 0; i < size_; ++i) {
      grown[i] = std::move(slots_[(head_ + i) & mask_]);
    }
    slots_ = std::move(grown);
    head_ = 0;
    mask_ = new_capacity - 1;
  }

  std::vector<T> slots_;
  size_t head_ = 0;
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_BASE_RING_DEQUE_H_
