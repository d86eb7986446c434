// Policy-SDK runqueue primitives: the one runqueue implementation surface
// that Policy authors compose instead of hand-rolling.
//
// FifoRunqueue backs the Shinjuku/Snap-style FIFO policies (Fig 3/4);
// MinRunqueue is an ordered queue keyed by a policy-chosen value — elapsed
// runtime for the Google Search policy's min-heap (§4.4), deadlines for the
// EDF secure-VM policy (§4.5); PrioArrayRunqueue is a multilevel FIFO with
// an occupancy bitmap and O(1) highest-priority pick (the Linux 2.6 O(1)
// scheduler's priority array, hoisted out of the O1 policy).
#ifndef GHOST_SIM_SRC_AGENT_SDK_RUNQUEUE_H_
#define GHOST_SIM_SRC_AGENT_SDK_RUNQUEUE_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/agent/task_table.h"
#include "src/base/logging.h"
#include "src/base/ring_deque.h"

namespace gs {

// Ring-backed: a std::deque oscillating around empty pays a chunk
// malloc/free every time its position crosses a block boundary, which showed
// up as the last steady-state allocations in tests/sim_alloc_test.
class FifoRunqueue {
 public:
  void Push(PolicyTask* task) { queue_.push_back(task); }
  void PushFront(PolicyTask* task) { queue_.push_front(task); }

  PolicyTask* Pop() {
    if (queue_.empty()) {
      return nullptr;
    }
    PolicyTask* task = queue_.front();
    queue_.pop_front();
    return task;
  }

  PolicyTask* Peek() const { return queue_.empty() ? nullptr : queue_.front(); }

  // Removes a task wherever it sits (e.g. it blocked while queued).
  bool Remove(PolicyTask* task) { return queue_.remove(task); }

  size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }
  void Clear() { queue_.clear(); }

  // Rotation support for skip-and-revisit scans (the Search policy skips
  // threads whose preferred CPUs are busy and revisits them next loop).
  RingDeque<PolicyTask*>& raw() { return queue_; }

 private:
  RingDeque<PolicyTask*> queue_;
};

// Ordered runqueue: smallest key first; ties broken by tid for determinism.
//
// Flat: one vector sorted descending by (key, tid), so the minimum lives at
// the back and PopMin is a pop_back. Push/Remove binary-search and memmove
// — contiguous 16-byte entries, no per-node heap traffic. The node churn of
// the previous std::set/std::map pair was the Search policy's hottest
// allocation site (two mallocs per enqueue, two frees per dispatch), and
// iteration order here is identical to what that std::set produced.
class MinRunqueue {
 public:
  void Push(PolicyTask* task, int64_t key) {
    task->rq_key = key;
    const Entry entry{key, task};
    queue_.insert(std::upper_bound(queue_.begin(), queue_.end(), entry, After),
                  entry);
  }

  PolicyTask* PopMin() {
    if (queue_.empty()) {
      return nullptr;
    }
    PolicyTask* task = queue_.back().second;
    queue_.pop_back();
    return task;
  }

  PolicyTask* PeekMin() const {
    return queue_.empty() ? nullptr : queue_.back().second;
  }

  bool Remove(PolicyTask* task) {
    const size_t index = IndexOf(task);
    if (index == queue_.size()) {
      return false;
    }
    queue_.erase(queue_.begin() + index);
    return true;
  }

  bool Contains(PolicyTask* task) const { return IndexOf(task) != queue_.size(); }
  size_t size() const { return queue_.size(); }
  bool empty() const { return queue_.empty(); }
  void Clear() { queue_.clear(); }

  // In-order iteration, smallest key first (skip-scan support).
  auto begin() const { return queue_.rbegin(); }
  auto end() const { return queue_.rend(); }

 private:
  using Entry = std::pair<int64_t, PolicyTask*>;

  // Descending (key, tid) — a strict total order since tids are unique.
  static bool After(const Entry& a, const Entry& b) {
    if (a.first != b.first) {
      return a.first > b.first;
    }
    return a.second->tid > b.second->tid;
  }

  // Index of `task`'s entry, or size() if absent. task->rq_key pins the
  // binary-search position; a stale key on an unqueued task just misses.
  size_t IndexOf(PolicyTask* task) const {
    const Entry probe{task->rq_key, task};
    auto it = std::lower_bound(queue_.begin(), queue_.end(), probe, After);
    if (it != queue_.end() && it->second == task) {
      return static_cast<size_t>(it - queue_.begin());
    }
    return queue_.size();
  }

  std::vector<Entry> queue_;
};

// Multilevel FIFO with an occupancy bitmap: one FIFO per priority level
// (0 is highest), pick = count-trailing-zeros on the bitmap + pop that
// queue's head. At most 64 levels (one bitmap word). This is the O(1)
// scheduler's priority array; the O1 policy keeps an active/expired pair of
// these and swaps them when the active one drains.
class PrioArrayRunqueue {
 public:
  PrioArrayRunqueue() = default;
  explicit PrioArrayRunqueue(int levels) { Resize(levels); }

  // Sets the number of priority levels. Existing queued tasks are dropped;
  // call before use (or between runs), not while populated.
  void Resize(int levels) {
    CHECK(levels >= 1 && levels <= 64)
        << "PrioArrayRunqueue: levels must be in [1, 64], got " << levels;
    queues_.assign(static_cast<size_t>(levels), FifoRunqueue());
    bitmap_ = 0;
  }

  void Push(PolicyTask* task, int prio, bool front) {
    if (front) {
      queues_[prio].PushFront(task);
    } else {
      queues_[prio].Push(task);
    }
    bitmap_ |= uint64_t{1} << prio;
  }

  // Head of the highest-priority non-empty level; nullptr if empty.
  PolicyTask* Pop() {
    if (bitmap_ == 0) {
      return nullptr;
    }
    const int prio = std::countr_zero(bitmap_);
    PolicyTask* task = queues_[prio].Pop();
    if (queues_[prio].empty()) {
      bitmap_ &= ~(uint64_t{1} << prio);
    }
    return task;
  }

  bool Remove(PolicyTask* task, int prio) {
    if (!queues_[prio].Remove(task)) {
      return false;
    }
    if (queues_[prio].empty()) {
      bitmap_ &= ~(uint64_t{1} << prio);
    }
    return true;
  }

  bool empty() const { return bitmap_ == 0; }

  size_t size() const {
    size_t total = 0;
    for (const FifoRunqueue& q : queues_) {
      total += q.size();
    }
    return total;
  }

  // Drops every queued task, keeping the level count.
  void Clear() {
    for (FifoRunqueue& q : queues_) {
      q.Clear();
    }
    bitmap_ = 0;
  }

  int levels() const { return static_cast<int>(queues_.size()); }

 private:
  uint64_t bitmap_ = 0;
  std::vector<FifoRunqueue> queues_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_AGENT_SDK_RUNQUEUE_H_
