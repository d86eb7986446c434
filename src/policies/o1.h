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
// SDK consumer: PerCpuAgentPolicy owns the per-CPU homing, notifications
// and the Fig 3 commit loop, the arrays are sdk PrioArrayRunqueues, and
// slice accounting is an sdk SliceBudget per task; this file keeps only the
// active/expired generation logic that makes the policy O(1)-shaped.
#ifndef GHOST_SIM_SRC_POLICIES_O1_H_
#define GHOST_SIM_SRC_POLICIES_O1_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/agent/sdk/per_cpu_agent.h"
#include "src/agent/sdk/runqueue.h"
#include "src/agent/sdk/timeslice.h"

namespace gs {

class O1Policy : public PerCpuAgentPolicy {
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

  // The slice a task of `priority` receives per array generation.
  Duration TimesliceFor(int priority) const;

  uint64_t array_swaps() const { return array_swaps_; }
  uint64_t slice_expirations() const { return slice_expirations_; }
  int RunqueueDepth() const override;

 protected:
  // The runqueue: `kNextRound` is the expired array, the other positions
  // are the active one.
  void Push(PolicyTask* task, int cpu, QueueAt at) override;
  void Remove(PolicyTask* task, int cpu) override;
  PolicyTask* Pick(AgentContext& ctx, int cpu) override;
  void ResetRunqueues() override;
  void TrackTask(PolicyTask* task) override;
  void UntrackTask(PolicyTask* task) override { states_.erase(task->tid); }
  void Committed(AgentContext& ctx, PolicyTask* task) override;

  // Slice accounting on the way into the arrays.
  void TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskPreempted(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskYield(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) override;

 private:
  // Per-task O1 state, owned here and linked from PolicyTask::user.
  struct O1Task {
    int prio = 0;
    SliceBudget slice;  // budget left in this array generation
    int array = 0;      // which of its home's arrays it is queued in
  };

  struct CpuSched {
    PrioArrayRunqueue arrays[2];
    int active = 0;  // index of the active array; 1 - active is expired
  };

  O1Task& StateOf(PolicyTask* task) { return *static_cast<O1Task*>(task->user); }
  // Charges virtual run time since the last pick against the slice budget.
  void ChargeRuntime(AgentContext& ctx, PolicyTask* task);
  int ClampPriority(int prio) const;

  Options options_;
  // Dense cpu -> arrays (unsized for CPUs outside the enclave).
  std::vector<CpuSched> cpus_;
  std::map<int64_t, O1Task> states_;  // tid -> O1 state (PolicyTask::user)

  uint64_t array_swaps_ = 0;
  uint64_t slice_expirations_ = 0;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_POLICIES_O1_H_
