// ghOSt messages (Table 1 of the paper).
//
// The kernel notifies userspace agents of thread state changes via typed
// messages delivered through shared-memory queues. Every message about a
// thread T carries T's sequence number (Tseq), incremented at post time, so
// agents can detect stale views when committing transactions (§3.1, §3.3).
#ifndef GHOST_SIM_SRC_GHOST_MESSAGE_H_
#define GHOST_SIM_SRC_GHOST_MESSAGE_H_

#include <cstdint>

#include "src/base/cpumask.h"
#include "src/base/time.h"

namespace gs {

enum class MessageType : uint8_t {
  kTaskNew,        // THREAD_CREATED: thread entered the enclave
  kTaskBlocked,    // THREAD_BLOCKED
  kTaskPreempted,  // THREAD_PREEMPTED (e.g. by a CFS thread, §3.4)
  kTaskYield,      // THREAD_YIELD
  kTaskDead,       // THREAD_DEAD
  kTaskWakeup,     // THREAD_WAKEUP
  kTaskAffinity,   // THREAD_AFFINITY (sched_setaffinity happened)
  kTaskDeparted,   // thread left the enclave (setscheduler away)
  kTimerTick,      // TIMER_TICK for a CPU running a ghOSt thread
  kAgentWakeup,    // queue wakeup marker (internal bookkeeping)
};

const char* ToString(MessageType type);

// 40 bytes: the hot fields only. The one payload too big to copy around,
// the affinity mask, travels as a pointer to an immutable mask the enclave
// interns (Enclave::InternMask), so a message still delivers the mask as it
// was when the message was posted.
struct Message {
  int64_t tid = 0;    // subject thread; 0 for CPU messages
  Time posted = 0;    // virtual post time
  // kTaskNew / kTaskAffinity payload: the thread's allowed CPUs; nullptr for
  // every other type.
  const CpuMask* affinity = nullptr;
  uint32_t tseq = 0;  // thread sequence number at post time
  int cpu = -1;       // CPU messages (kTimerTick) and context for preemptions
  MessageType type = MessageType::kTaskNew;
  // kTaskNew payload: was the thread runnable when it entered the enclave?
  bool runnable = false;
};
static_assert(sizeof(Message) <= 48);

}  // namespace gs

#endif  // GHOST_SIM_SRC_GHOST_MESSAGE_H_
