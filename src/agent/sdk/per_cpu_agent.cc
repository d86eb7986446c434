#include "src/agent/sdk/per_cpu_agent.h"

#include "src/agent/agent_process.h"

namespace gs {

void PerCpuAgentPolicy::Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) {
  process_ = process;
  enclave_ = enclave;
  const CpuMask& cpus = enclave->cpus();
  boss_cpu_ = cpus.First();
  queues_.assign(kernel->topology().num_cpus(), nullptr);
  for (int cpu = cpus.First(); cpu >= 0; cpu = cpus.NextAfter(cpu)) {
    MessageQueue* queue = enclave->CreateQueue();
    enclave->ConfigQueueWakeup(queue, process->agent_on(cpu));
    enclave->SetCpuQueue(cpu, queue);
    queues_[cpu] = queue;
    cpu_list_.push_back(cpu);
  }
  // New-thread announcements land on the default queue; the boss agent
  // drains it and spreads threads round-robin via ASSOCIATE_QUEUE.
  enclave->ConfigQueueWakeup(enclave->default_queue(), process->agent_on(boss_cpu_));
}

void PerCpuAgentPolicy::Restore(const std::vector<Enclave::TaskInfo>& dump) {
  ResetRunqueues();
  table().Clear();
  for (const Enclave::TaskInfo& info : dump) {
    PolicyTask* task = table().Add(info.tid);
    task->tseq = info.tseq;
    task->affinity = info.affinity;
    task->runnable = info.runnable;
    TrackTask(task);
    const int home = NextHomeCpu(task);
    task->home_cpu = home;
    enclave_->AssociateQueue(info.tid, queues_[home]);
    if (info.runnable && !info.on_cpu) {
      task->queued = true;
      Push(task, home, QueueAt::kBack);
    }
  }
}

int PerCpuAgentPolicy::NextHomeCpu(const PolicyTask* task) {
  const int cpu = cpu_list_[rr_next_ % cpu_list_.size()];
  ++rr_next_;
  return task->affinity.IsSet(cpu) ? cpu : FirstAllowedCpu(task, cpu);
}

int PerCpuAgentPolicy::FirstAllowedCpu(const PolicyTask* task, int fallback) const {
  for (int cpu : cpu_list_) {
    if (task->affinity.IsSet(cpu)) {
      return cpu;
    }
  }
  return fallback;
}

void PerCpuAgentPolicy::CollectQueues(AgentContext& ctx,
                                      std::vector<MessageQueue*>* queues) {
  const int cpu = ctx.agent_cpu();
  if (cpu == boss_cpu_) {
    queues->push_back(enclave_->default_queue());
  }
  queues->push_back(queues_[cpu]);
}

void PerCpuAgentPolicy::Enqueue(AgentContext& ctx, PolicyTask* task, QueueAt at) {
  if (task->queued) {
    return;
  }
  const int home = HomeOf(task, ctx.agent_cpu());
  task->queued = true;
  Push(task, home, at);
  NotifyAgent(ctx, home);
}

void PerCpuAgentPolicy::TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  TrackTask(task);
  const int home = NextHomeCpu(task);
  task->home_cpu = home;
  ctx.Charge(ctx.kernel()->cost().syscall);
  // May fail if more messages are pending on the default queue for this
  // thread; retried when they are drained.
  enclave_->AssociateQueue(msg.tid, queues_[home]);
  if (task->runnable) {
    Enqueue(ctx, task, QueueAt::kBack);
  }
}

void PerCpuAgentPolicy::TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  Enqueue(ctx, task, QueueAt::kBack);
}

void PerCpuAgentPolicy::TaskPreempted(AgentContext& ctx, PolicyTask* task,
                                      const Message& msg) {
  Enqueue(ctx, task, QueueAt::kFront);  // resume after the interruption
}

void PerCpuAgentPolicy::TaskYield(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  Enqueue(ctx, task, QueueAt::kBack);
}

void PerCpuAgentPolicy::Dequeue(AgentContext& ctx, PolicyTask* task) {
  if (task->queued) {
    Remove(task, HomeOf(task, ctx.agent_cpu()));
    task->queued = false;
  }
}

void PerCpuAgentPolicy::TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  Dequeue(ctx, task);
}

void PerCpuAgentPolicy::Evict(AgentContext& ctx, PolicyTask* task) {
  Dequeue(ctx, task);
  task->home_cpu = -1;
  UntrackTask(task);
  // The Policy base removes the TaskTable entry after this hook.
}

void PerCpuAgentPolicy::TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  Evict(ctx, task);
}

void PerCpuAgentPolicy::TaskDeparted(AgentContext& ctx, PolicyTask* task,
                                     const Message& msg) {
  Evict(ctx, task);
}

void PerCpuAgentPolicy::TaskAffinity(AgentContext& ctx, PolicyTask* task,
                                     const Message& msg) {
  // sched_setaffinity may have excluded the thread's home CPU: re-home it
  // on an allowed enclave CPU and move any queued entry along.
  const int home = HomeOf(task, ctx.agent_cpu());
  if (task->affinity.IsSet(home)) {
    return;
  }
  const int new_home = FirstAllowedCpu(task, -1);
  if (new_home < 0) {
    return;
  }
  if (task->queued) {
    Remove(task, home);
    Push(task, new_home, QueueAt::kBack);
  }
  task->home_cpu = new_home;
  ctx.Charge(ctx.kernel()->cost().syscall);
  enclave_->AssociateQueue(task->tid, queues_[new_home]);
  NotifyAgent(ctx, new_home);
}

void PerCpuAgentPolicy::NotifyAgent(AgentContext& ctx, int cpu) {
  if (cpu == ctx.agent_cpu()) {
    return;
  }
  // Userspace cross-agent notification (futex-style): wake the sibling agent
  // so it schedules the work just queued for it.
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

AgentAction PerCpuAgentPolicy::Schedule(AgentContext& ctx) {
  const int cpu = ctx.agent_cpu();
  const uint32_t aseq = ctx.ReadAseq();
  PolicyTask* next = Pick(ctx, cpu);
  if (next == nullptr) {
    return AgentAction::kBlock;
  }
  next->queued = false;
  Transaction txn = AgentContext::MakeTxn(next->tid, cpu);
  txn.expected_aseq = aseq;
  ctx.Commit(&txn);
  if (txn.committed()) {
    next->assigned_cpu = cpu;
    next->last_cpu = cpu;
    ++scheduled_;
    Committed(ctx, next);
    // Fig 3: the local commit takes effect when the agent vacates its CPU.
    return AgentAction::kYield;
  }
  if (txn.status == TxnStatus::kEStale || txn.status == TxnStatus::kETxnPending) {
    next->queued = true;
    Push(next, cpu, QueueAt::kFront);
    if (txn.status == TxnStatus::kETxnPending) {
      // This CPU still holds an earlier latched commit: the agent ran again
      // before vacating the CPU. Running again here would keep the latched
      // thread (and everything queued behind it) off the CPU for good, so
      // yield to let the latch take effect, and retry this thread after it.
      return AgentAction::kYield;
    }
    ++estale_failures_;
    return AgentAction::kRunAgain;  // drain the newer messages and retry
  }
  // Other failure: retry from the back of the queue, on another home if
  // the thread may no longer run here.
  if (!next->runnable) {
    return AgentAction::kRunAgain;
  }
  const int home = next->affinity.IsSet(cpu) ? cpu : FirstAllowedCpu(next, cpu);
  next->home_cpu = home;
  next->queued = true;
  Push(next, home, QueueAt::kBack);
  NotifyAgent(ctx, home);
  return AgentAction::kRunAgain;
}

}  // namespace gs
