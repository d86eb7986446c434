#include "src/policies/o1.h"

#include "src/base/logging.h"

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
  enclave_ = enclave;
  process_ = process;
  const CpuMask& cpus = enclave->cpus();
  boss_cpu_ = cpus.First();
  for (int cpu = cpus.First(); cpu >= 0; cpu = cpus.NextAfter(cpu)) {
    CpuSched& cs = cpus_[cpu];
    cs.queue = enclave->CreateQueue();
    cs.arrays[0].Resize(options_.num_priorities);
    cs.arrays[1].Resize(options_.num_priorities);
    enclave->ConfigQueueWakeup(cs.queue, process->agent_on(cpu));
    enclave->SetCpuQueue(cpu, cs.queue);
    cpu_list_.push_back(cpu);
  }
  enclave->ConfigQueueWakeup(enclave->default_queue(), process->agent_on(boss_cpu_));
}

void O1Policy::Restore(const std::vector<Enclave::TaskInfo>& dump) {
  for (auto& [cpu, sched] : cpus_) {
    sched.arrays[0].Clear();
    sched.arrays[1].Clear();
    sched.active = 0;
  }
  states_.clear();
  table().Clear();
  for (const Enclave::TaskInfo& info : dump) {
    PolicyTask* task = table().Add(info.tid);
    task->tseq = info.tseq;
    task->affinity = info.affinity;
    task->runnable = info.runnable;
    O1Task& st = AttachState(task);
    st.home = NextHomeCpu();
    enclave_->AssociateQueue(info.tid, cpus_[st.home].queue);
    if (info.runnable && !info.on_cpu) {
      task->queued = true;
      st.array = cpus_[st.home].active;
      cpus_[st.home].arrays[st.array].Push(task, st.prio, /*front=*/false);
    }
  }
}

int O1Policy::RunqueueDepth() const {
  int total = 0;
  for (const auto& [cpu, sched] : cpus_) {
    total += static_cast<int>(sched.arrays[0].size() + sched.arrays[1].size());
  }
  return total;
}

O1Policy::O1Task& O1Policy::AttachState(PolicyTask* task) {
  O1Task& st = states_[task->tid];
  st.prio = options_.priority_of
                ? ClampPriority(options_.priority_of(task->tid))
                : options_.num_priorities / 2;
  st.slice.Refresh(TimesliceFor(st.prio));
  task->user = &st;
  return st;
}

int O1Policy::NextHomeCpu() {
  const int cpu = cpu_list_[rr_next_ % cpu_list_.size()];
  ++rr_next_;
  return cpu;
}

void O1Policy::CollectQueues(AgentContext& ctx, std::vector<MessageQueue*>* queues) {
  const int cpu = ctx.agent_cpu();
  if (cpu == boss_cpu_) {
    queues->push_back(enclave_->default_queue());
  }
  queues->push_back(cpus_[cpu].queue);
}

void O1Policy::ChargeRuntime(AgentContext& ctx, PolicyTask* task) {
  StateOf(task).slice.ChargeUntil(ctx.start());
}

void O1Policy::EnqueueRunnable(AgentContext& ctx, PolicyTask* task, bool expired,
                               bool front) {
  if (task->queued) {
    return;
  }
  O1Task& st = StateOf(task);
  CpuSched& cs = cpus_[st.home];
  task->queued = true;
  st.array = expired ? 1 - cs.active : cs.active;
  cs.arrays[st.array].Push(task, st.prio, front);
  NotifyAgent(ctx, st.home);
}

void O1Policy::Dequeue(PolicyTask* task) {
  if (!task->queued) {
    return;
  }
  O1Task& st = StateOf(task);
  cpus_[st.home].arrays[st.array].Remove(task, st.prio);
  task->queued = false;
}

void O1Policy::TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  O1Task& st = AttachState(task);
  st.home = NextHomeCpu();
  ctx.Charge(ctx.kernel()->cost().syscall);
  enclave_->AssociateQueue(msg.tid, cpus_[st.home].queue);
  if (task->runnable) {
    EnqueueRunnable(ctx, task, /*expired=*/false, /*front=*/false);
  }
}

void O1Policy::TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  // Sleeper reward (the O(1) interactivity idea, minus the heuristics):
  // blocking forfeited the rest of the old slice; waking grants a fresh one
  // and re-entry into the active array.
  O1Task& st = StateOf(task);
  st.slice.Refresh(TimesliceFor(st.prio));
  EnqueueRunnable(ctx, task, /*expired=*/false, /*front=*/false);
}

void O1Policy::TaskPreempted(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  ChargeRuntime(ctx, task);
  O1Task& st = StateOf(task);
  if (st.slice.Expired()) {
    // Slice exhausted: refresh and rotate into the expired array.
    ++slice_expirations_;
    st.slice.Refresh(TimesliceFor(st.prio));
    EnqueueRunnable(ctx, task, /*expired=*/true, /*front=*/false);
  } else {
    // Slice unfinished (agent preemption, higher-priority wakeup): resume at
    // the head of its level.
    EnqueueRunnable(ctx, task, /*expired=*/false, /*front=*/true);
  }
}

void O1Policy::TaskYield(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  // sched_yield under O(1): to the expired array, fresh slice.
  ChargeRuntime(ctx, task);
  O1Task& st = StateOf(task);
  st.slice.Refresh(TimesliceFor(st.prio));
  EnqueueRunnable(ctx, task, /*expired=*/true, /*front=*/false);
}

void O1Policy::TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  ChargeRuntime(ctx, task);
  Dequeue(task);
}

void O1Policy::Evict(AgentContext& ctx, PolicyTask* task) {
  Dequeue(task);
  states_.erase(task->tid);
  // The Policy base removes the TaskTable entry after this hook.
}

void O1Policy::TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  Evict(ctx, task);
}

void O1Policy::TaskDeparted(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  Evict(ctx, task);
}

void O1Policy::TaskAffinity(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  O1Task& st = StateOf(task);
  if (task->affinity.IsSet(st.home)) {
    return;
  }
  int new_home = -1;
  for (int candidate : cpu_list_) {
    if (task->affinity.IsSet(candidate)) {
      new_home = candidate;
      break;
    }
  }
  if (new_home < 0) {
    return;
  }
  const bool was_queued = task->queued;
  Dequeue(task);
  st.home = new_home;
  ctx.Charge(ctx.kernel()->cost().syscall);
  enclave_->AssociateQueue(task->tid, cpus_[new_home].queue);
  if (was_queued) {
    EnqueueRunnable(ctx, task, /*expired=*/false, /*front=*/false);
  }
}

void O1Policy::NotifyAgent(AgentContext& ctx, int cpu) {
  if (cpu == ctx.agent_cpu()) {
    return;
  }
  Task* agent = process_->agent_on(cpu);
  if (agent == nullptr) {
    return;
  }
  if (agent->state() == TaskState::kBlocked) {
    ctx.Charge(ctx.kernel()->cost().syscall + ctx.kernel()->cost().agent_wakeup);
    ctx.kernel()->Wake(agent);
  } else {
    enclave_->PokeAgent(agent);
  }
}

AgentAction O1Policy::Schedule(AgentContext& ctx) {
  const int cpu = ctx.agent_cpu();
  CpuSched& cs = cpus_[cpu];
  const uint32_t aseq = ctx.ReadAseq();

  if (cs.arrays[cs.active].empty()) {
    if (cs.arrays[1 - cs.active].empty()) {
      return AgentAction::kBlock;
    }
    // The active array drained: swap. Every expired task now runs before any
    // task runs twice — the O(1) starvation-freedom guarantee.
    cs.active = 1 - cs.active;
    ++array_swaps_;
  }

  PolicyTask* next = cs.arrays[cs.active].Pop();
  next->queued = false;
  O1Task& st = StateOf(next);
  Transaction txn = AgentContext::MakeTxn(next->tid, cpu);
  txn.expected_aseq = aseq;
  Transaction* ptr = &txn;
  ctx.Commit(ptr);
  if (txn.committed()) {
    next->assigned_cpu = cpu;
    next->last_cpu = cpu;
    st.slice.MarkPicked(ctx.start());
    ++scheduled_;
    return AgentAction::kYield;
  }
  if (txn.status == TxnStatus::kEStale) {
    ++estale_failures_;
    next->queued = true;
    st.array = cs.active;
    cs.arrays[cs.active].Push(next, st.prio, /*front=*/true);
    return AgentAction::kRunAgain;
  }
  if (next->runnable) {
    if (!next->affinity.IsSet(cpu)) {
      int new_home = cpu;
      for (int candidate : cpu_list_) {
        if (next->affinity.IsSet(candidate)) {
          new_home = candidate;
          break;
        }
      }
      st.home = new_home;
      EnqueueRunnable(ctx, next, /*expired=*/false, /*front=*/false);
    } else {
      next->queued = true;
      st.array = cs.active;
      cs.arrays[cs.active].Push(next, st.prio, /*front=*/false);
    }
  }
  return AgentAction::kRunAgain;
}

}  // namespace gs
