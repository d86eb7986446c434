// Message queue (§3.1).
//
// The paper's queues are shared-memory rings: the kernel-side ghOSt class
// produces, one agent consumes. In the simulator both sides run on the
// machine's one thread, so a queue is a single-threaded FIFO with the queue's
// logical capacity as an explicit bound: a message posted to a queue that
// already holds `capacity` messages is dropped, and the enclave turns the drop
// into the recoverable overflow/resync path. Storage grows to the queue's
// high-water mark and is then reused, so an idle queue costs nothing and a
// busy one stops allocating once warm. The lock-free rings (`SpscRing`,
// `MpmcRing`) are the host-measured substrates of Table 3, not this queue.
// A queue may be configured to wake up a (blocked) agent when a message is
// produced (CONFIG_QUEUE_WAKEUP); spinning agents instead get poked through
// the enclave's poll-waiter list.
#ifndef GHOST_SIM_SRC_GHOST_MESSAGE_QUEUE_H_
#define GHOST_SIM_SRC_GHOST_MESSAGE_QUEUE_H_

#include <cstddef>
#include <optional>

#include "src/base/logging.h"
#include "src/base/ring_deque.h"
#include "src/base/time.h"
#include "src/ghost/message.h"

namespace gs {

class Task;

// Logical capacity of a queue unless its creator asks for another.
inline constexpr size_t kDefaultQueueCapacity = 8192;

class MessageQueue {
 public:
  MessageQueue(int id, size_t capacity) : id_(id), capacity_(capacity) {
    CHECK_GT(capacity, 0u);
  }

  int id() const { return id_; }

  // Returns false, and drops `msg`, if the queue is at its capacity.
  bool Push(const Message& msg) {
    if (messages_.size() >= capacity_) {
      return false;
    }
    messages_.push_back(msg);
    return true;
  }
  std::optional<Message> Pop() {
    if (messages_.empty()) {
      return std::nullopt;
    }
    std::optional<Message> msg = messages_.front();
    messages_.pop_front();
    return msg;
  }
  size_t size() const { return messages_.size(); }
  bool empty() const { return messages_.empty(); }

  // CONFIG_QUEUE_WAKEUP target: agent woken when a message lands while it is
  // blocked. nullptr = no wakeup (polled queue).
  Task* wakeup_agent() const { return wakeup_agent_; }
  void set_wakeup_agent(Task* agent) { wakeup_agent_ = agent; }

  // A message aimed at this queue was dropped (queue full or injected
  // overflow pressure). The consumer's view of the affected threads is now
  // stale; it must resync from the kernel's TaskDump (§3.1/§3.4).
  void NoteOverflow() { ++overflows_; }
  uint64_t overflows() const { return overflows_; }

  // Batched-delivery bookkeeping (producer side, mirrors group commit): the
  // virtual time at which the most recently armed wakeup event for this
  // queue will fire. Messages posted within the same event-loop dispatch
  // batch (same virtual instant, same wakeup delay) ride the already-armed
  // event instead of scheduling their own — one wakeup per batch. Wakeups
  // are idempotent ("wake if blocked"), and within one instant a just-woken
  // agent cannot have re-blocked (context switches cost > 0), so coalescing
  // is observationally identical to one event per message.
  Time armed_wakeup_at() const { return armed_wakeup_at_; }
  void set_armed_wakeup_at(Time t) { armed_wakeup_at_ = t; }

 private:
  const int id_;
  const size_t capacity_;
  RingDeque<Message> messages_;
  Task* wakeup_agent_ = nullptr;
  uint64_t overflows_ = 0;
  Time armed_wakeup_at_ = -1;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_GHOST_MESSAGE_QUEUE_H_
