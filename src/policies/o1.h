// O(1)-style multilevel-queue policy: per-CPU active/expired priority
// arrays with bitmap pick, in the spirit of the Linux 2.6 O(1) scheduler
// (and the ghost-userspace O1 agent port referenced in ROADMAP).
//
// Each CPU's agent owns two priority arrays of FIFO runqueues ("active" and
// "expired") plus a per-array occupancy bitmap. Picking the next thread is
// O(1): count-trailing-zeros on the active bitmap, pop the head of that
// queue. Every task carries a priority-dependent timeslice (higher priority
// => longer slice, as in Linux); when a task exhausts its slice it moves to
// the *expired* array with a fresh slice, and when the active array drains
// the two arrays swap. The swap is the starvation-freedom mechanism: every
// queued task, of every priority, runs before any task runs twice off the
// same array generation.
//
// Interactivity, O(1)-style but simplified: a task that blocks and wakes
// gets a fresh slice and re-enters the ACTIVE array (sleepers are rewarded);
// a task that calls sched_yield is demoted to the expired array.
//
// SDK consumer: message boilerplate lives in the Policy base, the priority
// arrays are sdk PrioArrayRunqueues, and slice accounting is an sdk
// SliceBudget per task; this file keeps only the active/expired generation
// logic and per-CPU homing that make the policy O(1)-shaped.
#ifndef GHOST_SIM_SRC_POLICIES_O1_H_
#define GHOST_SIM_SRC_POLICIES_O1_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/agent/agent_context.h"
#include "src/agent/agent_process.h"
#include "src/agent/sdk/sdk.h"

namespace gs {

class O1Policy : public Policy {
 public:
  struct Options {
    // Priority levels; 0 is the highest. Must be in [1, 64] (one bitmap word).
    int num_priorities = 8;
    // Timeslices interpolate linearly from base (priority 0) down to min
    // (lowest priority), mirroring Linux's static_prio -> timeslice map.
    // Slices below the kernel tick period cannot be enforced any finer than
    // the tick, so keep min >= the cost model's tick_period (1 ms default).
    Duration base_timeslice = Milliseconds(6);
    Duration min_timeslice = Milliseconds(1);
    // Maps tid -> priority (clamped into range). Default: everything mid.
    std::function<int(int64_t)> priority_of;
  };

  O1Policy() : O1Policy(Options()) {}
  explicit O1Policy(Options options);

  const char* name() const override { return "o1-mlq"; }
  void Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) override;
  void Restore(const std::vector<Enclave::TaskInfo>& dump) override;

  // The slice a task of `priority` receives per array generation.
  Duration TimesliceFor(int priority) const;

  uint64_t scheduled() const { return scheduled_; }
  uint64_t estale_failures() const { return estale_failures_; }
  uint64_t array_swaps() const { return array_swaps_; }
  uint64_t slice_expirations() const { return slice_expirations_; }
  int RunqueueDepth() const override;

 protected:
  void CollectQueues(AgentContext& ctx, std::vector<MessageQueue*>* queues) override;
  AgentAction Schedule(AgentContext& ctx) override;
  void TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskPreempted(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskYield(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskDeparted(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskAffinity(AgentContext& ctx, PolicyTask* task, const Message& msg) override;

 private:
  // Per-task O1 state, owned here and linked from PolicyTask::user.
  struct O1Task {
    int prio = 0;
    SliceBudget slice;  // budget left in this array generation
    int home = -1;      // owning CPU
    int array = 0;      // which of its home's arrays it is queued in
  };

  struct CpuSched {
    MessageQueue* queue = nullptr;
    PrioArrayRunqueue arrays[2];
    int active = 0;  // index of the active array; 1 - active is expired
  };

  O1Task& StateOf(PolicyTask* task) { return *static_cast<O1Task*>(task->user); }
  O1Task& AttachState(PolicyTask* task);
  // Charges virtual run time since the last pick against the slice budget.
  void ChargeRuntime(AgentContext& ctx, PolicyTask* task);
  // Queues a runnable task on its home CPU. `expired` selects the array;
  // `front` resumes an unfinished slice at the queue head.
  void EnqueueRunnable(AgentContext& ctx, PolicyTask* task, bool expired, bool front);
  void Dequeue(PolicyTask* task);
  void Evict(AgentContext& ctx, PolicyTask* task);
  void NotifyAgent(AgentContext& ctx, int cpu);
  int NextHomeCpu();
  int ClampPriority(int prio) const;

  Options options_;
  Enclave* enclave_ = nullptr;
  AgentProcess* process_ = nullptr;
  std::map<int, CpuSched> cpus_;
  std::map<int64_t, O1Task> states_;  // tid -> O1 state (PolicyTask::user)
  std::vector<int> cpu_list_;
  size_t rr_next_ = 0;
  int boss_cpu_ = -1;

  uint64_t scheduled_ = 0;
  uint64_t estale_failures_ = 0;
  uint64_t array_swaps_ = 0;
  uint64_t slice_expirations_ = 0;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_POLICIES_O1_H_
