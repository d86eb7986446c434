// TaskTable: message-driven bookkeeping of thread state in userspace.
//
// This is the core of the paper's "ghOSt Userspace Support Library"
// (Table 2): policies consume the kernel's message stream and need a
// consistent per-thread view (runnable? where did it run? latest Tseq?).
// Policies attach their own state via the `user` pointer and react to
// transitions through the Apply() result.
#ifndef GHOST_SIM_SRC_AGENT_TASK_TABLE_H_
#define GHOST_SIM_SRC_AGENT_TASK_TABLE_H_

#include <cstdint>
#include <vector>

#include "src/base/cpumask.h"
#include "src/base/slab.h"
#include "src/base/time.h"
#include "src/ghost/message.h"

namespace gs {

// The policy's view of one managed thread.
struct PolicyTask {
  int64_t tid = 0;
  bool runnable = false;
  // Policy's belief: scheduled on this CPU (set by the policy on a committed
  // transaction, cleared when a BLOCKED/PREEMPTED/YIELD/DEAD message lands).
  int assigned_cpu = -1;
  int last_cpu = -1;  // where it last ran, for locality decisions
  uint32_t tseq = 0;  // latest sequence number seen
  CpuMask affinity;
  Time became_runnable = 0;
  // Common policy bookkeeping: is the task sitting in a policy runqueue, and
  // which priority tier does it belong to (0 = latency-critical).
  bool queued = false;
  int tier = 0;
  // Key under which a MinRunqueue currently holds this task (written by
  // MinRunqueue::Push, meaningful only while queued): lets Remove binary-
  // search the flat queue instead of keeping a side map.
  int64_t rq_key = 0;
  // The CPU whose agent schedules this task under a per-CPU agent policy
  // (PerCpuAgentPolicy), or -1 before it is homed. Whoever moves it also
  // moves the task's runqueue link and message queue (the §3.1 steal).
  int home_cpu = -1;
  // Policy-specific payload (e.g. deadlines, per-query state).
  void* user = nullptr;
};

class TaskTable {
 public:
  enum class Event {
    kNone,        // CPU message or unknown thread
    kNew,         // thread joined (possibly already runnable)
    kRunnable,    // thread became runnable (wakeup / preempted / yielded)
    kBlocked,     // thread blocked
    kDead,        // thread died or departed
    kAffinity,    // affinity changed (still in whatever state it was)
  };

  // Folds a message into the table. `*out` receives the affected task
  // (nullptr for CPU messages / already-dead threads).
  Event Apply(const Message& msg, PolicyTask** out);

  // Policies call Find once per message and per commit attempt — tens of
  // millions of times in a bench run. Tids are dense from 1, so the table is
  // a vector indexed by tid over a slab of entries.
  PolicyTask* Find(int64_t tid) {
    return static_cast<uint64_t>(tid) < by_tid_.size() ? by_tid_[tid] : nullptr;
  }
  PolicyTask* Add(int64_t tid);  // for Restore() paths
  void Remove(int64_t tid);
  // All tracked tids, sorted ascending (deterministic iteration for
  // Restore()-style reconciliation against a TaskDump).
  std::vector<int64_t> SortedTids() const;
  // Drops every entry (Restore()/resync paths rebuild from a TaskDump).
  // Callers must first clear any runqueues holding PolicyTask pointers.
  void Clear() {
    by_tid_.clear();
    slab_.Clear();
    size_ = 0;
  }
  size_t size() const { return size_; }

 private:
  Slab<PolicyTask> slab_;
  std::vector<PolicyTask*> by_tid_;  // nullptr: tid not tracked
  size_t size_ = 0;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_AGENT_TASK_TABLE_H_
