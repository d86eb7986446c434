#include "src/policies/o1.h"

#include "src/base/logging.h"
#include "src/kernel/kernel.h"

namespace gs {

O1Policy::O1Policy(Options options) : options_(std::move(options)) {
  CHECK(options_.num_priorities >= 1 && options_.num_priorities <= 64)
      << "O1Policy: num_priorities must be in [1, 64], got "
      << options_.num_priorities;
  CHECK_GE(options_.base_timeslice, options_.min_timeslice);
}

Duration O1Policy::TimesliceFor(int priority) const {
  return InterpolatedTimeslice(options_.base_timeslice, options_.min_timeslice,
                               priority, options_.num_priorities);
}

int O1Policy::ClampPriority(int prio) const {
  if (prio < 0) {
    return 0;
  }
  if (prio >= options_.num_priorities) {
    return options_.num_priorities - 1;
  }
  return prio;
}

void O1Policy::Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) {
  PerCpuAgentPolicy::Attached(process, enclave, kernel);
  cpus_.resize(kernel->topology().num_cpus());
  for (int cpu : cpu_list()) {
    cpus_[cpu].arrays[0].Resize(options_.num_priorities);
    cpus_[cpu].arrays[1].Resize(options_.num_priorities);
  }
}

void O1Policy::ResetRunqueues() {
  for (CpuSched& sched : cpus_) {
    sched.arrays[0].Clear();
    sched.arrays[1].Clear();
    sched.active = 0;
  }
  states_.clear();
}

int O1Policy::RunqueueDepth() const {
  int total = 0;
  for (const CpuSched& sched : cpus_) {
    total += static_cast<int>(sched.arrays[0].size() + sched.arrays[1].size());
  }
  return total;
}

void O1Policy::TrackTask(PolicyTask* task) {
  O1Task& st = states_[task->tid];
  st.prio = options_.priority_of
                ? ClampPriority(options_.priority_of(task->tid))
                : options_.num_priorities / 2;
  st.slice.Refresh(TimesliceFor(st.prio));
  task->user = &st;
}

void O1Policy::Push(PolicyTask* task, int cpu, QueueAt at) {
  O1Task& st = StateOf(task);
  CpuSched& cs = cpus_[cpu];
  st.array = at == QueueAt::kNextRound ? 1 - cs.active : cs.active;
  cs.arrays[st.array].Push(task, st.prio, /*front=*/at == QueueAt::kFront);
}

void O1Policy::Remove(PolicyTask* task, int cpu) {
  const O1Task& st = StateOf(task);
  cpus_[cpu].arrays[st.array].Remove(task, st.prio);
}

PolicyTask* O1Policy::Pick(AgentContext& ctx, int cpu) {
  CpuSched& cs = cpus_[cpu];
  if (cs.arrays[cs.active].empty()) {
    if (cs.arrays[1 - cs.active].empty()) {
      return nullptr;
    }
    // The active array drained: swap. Every expired task now runs before any
    // task runs twice — the O(1) starvation-freedom guarantee.
    cs.active = 1 - cs.active;
    ++array_swaps_;
  }
  return cs.arrays[cs.active].Pop();
}

void O1Policy::Committed(AgentContext& ctx, PolicyTask* task) {
  StateOf(task).slice.MarkPicked(ctx.start());
}

void O1Policy::ChargeRuntime(AgentContext& ctx, PolicyTask* task) {
  StateOf(task).slice.ChargeUntil(ctx.start());
}

void O1Policy::TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  // Sleeper reward (the O(1) interactivity idea, minus the heuristics):
  // blocking forfeited the rest of the old slice; waking grants a fresh one
  // and re-entry into the active array.
  O1Task& st = StateOf(task);
  st.slice.Refresh(TimesliceFor(st.prio));
  Enqueue(ctx, task, QueueAt::kBack);
}

void O1Policy::TaskPreempted(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  ChargeRuntime(ctx, task);
  O1Task& st = StateOf(task);
  if (st.slice.Expired()) {
    // Slice exhausted: refresh and rotate into the expired array.
    ++slice_expirations_;
    st.slice.Refresh(TimesliceFor(st.prio));
    Enqueue(ctx, task, QueueAt::kNextRound);
  } else {
    // Slice unfinished (agent preemption, higher-priority wakeup): resume at
    // the head of its level.
    Enqueue(ctx, task, QueueAt::kFront);
  }
}

void O1Policy::TaskYield(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  // sched_yield under O(1): to the expired array, fresh slice.
  ChargeRuntime(ctx, task);
  O1Task& st = StateOf(task);
  st.slice.Refresh(TimesliceFor(st.prio));
  Enqueue(ctx, task, QueueAt::kNextRound);
}

void O1Policy::TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  ChargeRuntime(ctx, task);
  PerCpuAgentPolicy::TaskBlocked(ctx, task, msg);
}

}  // namespace gs
