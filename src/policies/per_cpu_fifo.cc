#include "src/policies/per_cpu_fifo.h"

#include <utility>

namespace gs {

void PerCpuFifoPolicy::Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) {
  enclave_ = enclave;
  process_ = process;
  const CpuMask& cpus = enclave->cpus();
  boss_cpu_ = cpus.First();
  cpus_.resize(kernel->topology().num_cpus());
  for (int cpu = cpus.First(); cpu >= 0; cpu = cpus.NextAfter(cpu)) {
    CpuSched& cs = cpus_[cpu];
    cs.queue = enclave->CreateQueue();
    enclave->ConfigQueueWakeup(cs.queue, process->agent_on(cpu));
    enclave->SetCpuQueue(cpu, cs.queue);
    cpu_list_.push_back(cpu);
  }
  // New-thread announcements land on the default queue; the boss agent
  // drains it and spreads threads round-robin via ASSOCIATE_QUEUE.
  enclave->ConfigQueueWakeup(enclave->default_queue(), process->agent_on(boss_cpu_));
}

void PerCpuFifoPolicy::Restore(const std::vector<Enclave::TaskInfo>& dump) {
  // Full view replacement (also the overflow-resync path).
  for (CpuSched& sched : cpus_) {
    sched.runqueue.Clear();
  }
  home_cpu_.Clear();
  table().Clear();
  for (const Enclave::TaskInfo& info : dump) {
    PolicyTask* task = table().Add(info.tid);
    task->tseq = info.tseq;
    task->affinity = info.affinity;
    task->runnable = info.runnable;
    const int home = NextHomeCpu();
    home_cpu_.Insert(info.tid, home);
    enclave_->AssociateQueue(info.tid, cpus_[home].queue);
    if (info.runnable && !info.on_cpu) {
      task->queued = true;
      cpus_[home].runqueue.Push(task);
    }
  }
}

int PerCpuFifoPolicy::NextHomeCpu() {
  const int cpu = cpu_list_[rr_next_ % cpu_list_.size()];
  ++rr_next_;
  return cpu;
}

void PerCpuFifoPolicy::CollectQueues(AgentContext& ctx,
                                     std::vector<MessageQueue*>* queues) {
  const int cpu = ctx.agent_cpu();
  if (cpu == boss_cpu_) {
    queues->push_back(enclave_->default_queue());
  }
  queues->push_back(cpus_[cpu].queue);
}

void PerCpuFifoPolicy::TimerTick(AgentContext& ctx, const Message& msg) {
  cpus_[msg.cpu].rotate = true;  // rotation decision is made in Schedule()
}

void PerCpuFifoPolicy::TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  const int home = NextHomeCpu();
  home_cpu_.Insert(msg.tid, home);
  ctx.Charge(ctx.kernel()->cost().syscall);
  // May fail if more messages are pending on the default queue for this
  // thread; retried when they are drained.
  enclave_->AssociateQueue(msg.tid, cpus_[home].queue);
  if (task->runnable && !task->queued) {
    task->queued = true;
    cpus_[home].runqueue.Push(task);
    NotifyAgent(ctx, home);
  }
}

void PerCpuFifoPolicy::EnqueueRunnable(AgentContext& ctx, PolicyTask* task, bool front) {
  if (task->queued) {
    return;
  }
  const int home = HomeOf(task->tid, ctx.agent_cpu());
  task->queued = true;
  if (front) {
    cpus_[home].runqueue.PushFront(task);  // resume after the interruption
  } else {
    cpus_[home].runqueue.Push(task);
  }
  NotifyAgent(ctx, home);
}

void PerCpuFifoPolicy::TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  EnqueueRunnable(ctx, task, /*front=*/false);
}

void PerCpuFifoPolicy::TaskPreempted(AgentContext& ctx, PolicyTask* task,
                                     const Message& msg) {
  EnqueueRunnable(ctx, task, /*front=*/true);
}

void PerCpuFifoPolicy::TaskYield(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  EnqueueRunnable(ctx, task, /*front=*/false);
}

void PerCpuFifoPolicy::TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  if (task->queued) {
    cpus_[HomeOf(task->tid, ctx.agent_cpu())].runqueue.Remove(task);
    task->queued = false;
  }
}

void PerCpuFifoPolicy::Evict(AgentContext& ctx, PolicyTask* task) {
  if (task->queued) {
    cpus_[HomeOf(task->tid, ctx.agent_cpu())].runqueue.Remove(task);
  }
  home_cpu_.Erase(task->tid);
  // The Policy base removes the TaskTable entry after this hook.
}

void PerCpuFifoPolicy::TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  Evict(ctx, task);
}

void PerCpuFifoPolicy::TaskDeparted(AgentContext& ctx, PolicyTask* task,
                                    const Message& msg) {
  Evict(ctx, task);
}

void PerCpuFifoPolicy::TaskAffinity(AgentContext& ctx, PolicyTask* task,
                                    const Message& msg) {
  // sched_setaffinity may have excluded the task's home CPU: re-home it
  // to an allowed enclave CPU (and move any queued entry along).
  const int home = HomeOf(task->tid, ctx.agent_cpu());
  if (task->affinity.IsSet(home)) {
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
  if (task->queued) {
    cpus_[home].runqueue.Remove(task);
    cpus_[new_home].runqueue.Push(task);
  }
  home_cpu_.Insert(task->tid, new_home);
  ctx.Charge(ctx.kernel()->cost().syscall);
  enclave_->AssociateQueue(task->tid, cpus_[new_home].queue);
  NotifyAgent(ctx, new_home);
}

void PerCpuFifoPolicy::NotifyAgent(AgentContext& ctx, int cpu) {
  if (cpu == ctx.agent_cpu()) {
    return;
  }
  // Userspace cross-agent notification (futex-style): wake the sibling agent
  // so it schedules the work we just queued for it.
  Task* agent = process_->agent_on(cpu);
  if (agent == nullptr) {
    return;
  }
  if (agent->state() == TaskState::kBlocked) {
    ctx.Charge(ctx.kernel()->cost().syscall + ctx.kernel()->cost().agent_wakeup);
    ctx.kernel()->Wake(agent);
  } else {
    // The sibling is mid-iteration (or queued to run): flag the push so its
    // check-then-sleep re-runs instead of blocking over a non-empty runqueue.
    enclave_->PokeAgent(agent);
  }
}

AgentAction PerCpuFifoPolicy::Schedule(AgentContext& ctx) {
  const int cpu = ctx.agent_cpu();
  CpuSched& cs = cpus_[cpu];
  const uint32_t aseq = ctx.ReadAseq();
  // Round-robin on timer ticks: rotate the interrupted thread to the back.
  if (std::exchange(cs.rotate, false) && cs.runqueue.size() >= 2) {
    cs.runqueue.Push(cs.runqueue.Pop());
  }

  PolicyTask* next = cs.runqueue.Pop();
  if (next == nullptr) {
    next = Steal(ctx, cpu);
  }
  if (next == nullptr) {
    return AgentAction::kBlock;
  }
  next->queued = false;
  Transaction txn = AgentContext::MakeTxn(next->tid, cpu);
  txn.expected_aseq = aseq;
  Transaction* ptr = &txn;
  ctx.Commit(ptr);
  if (txn.committed()) {
    next->assigned_cpu = cpu;
    next->last_cpu = cpu;
    ++scheduled_;
    // Fig 3: the local commit takes effect when the agent vacates its CPU.
    return AgentAction::kYield;
  }
  if (txn.status == TxnStatus::kEStale) {
    ++estale_failures_;
    next->queued = true;
    cs.runqueue.PushFront(next);
    return AgentAction::kRunAgain;  // drain the newer messages and retry
  }
  // Other failure: if the thread may no longer run here, re-home it;
  // otherwise push to the back and retry next time around.
  if (next->runnable) {
    next->queued = true;
    if (!next->affinity.IsSet(cpu)) {
      int new_home = cpu;
      for (int candidate : cpu_list_) {
        if (next->affinity.IsSet(candidate)) {
          new_home = candidate;
          break;
        }
      }
      home_cpu_.Insert(next->tid, new_home);
      cpus_[new_home].runqueue.Push(next);
      NotifyAgent(ctx, new_home);
    } else {
      cs.runqueue.Push(next);
    }
  }
  return AgentAction::kRunAgain;
}

}  // namespace gs
