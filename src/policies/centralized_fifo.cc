#include "src/policies/centralized_fifo.h"

#include <algorithm>

namespace gs {

CentralizedFifoPolicy::CentralizedFifoPolicy(Options options)
    : GlobalAgentPolicy(options.global_cpu, /*hot_handoff=*/true),
      options_(std::move(options)) {
  if (!options_.tier_of) {
    options_.tier_of = [](int64_t) { return 0; };
  }
}

void CentralizedFifoPolicy::Attached(AgentProcess* process, Enclave* enclave,
                                     Kernel* kernel) {
  GlobalAgentPolicy::Attached(process, enclave, kernel);
  running_.assign(kernel->topology().num_cpus(), Running{});
  if (options_.use_fastpath) {
    enclave->InstallFastPath(RingFastPath::Global(kernel->topology().num_cpus()));
  }
}

void CentralizedFifoPolicy::Restore(const std::vector<Enclave::TaskInfo>& dump) {
  // Restore() is also the overflow-resync path: the dump replaces the whole
  // view, so stale runqueue state must go first.
  fifo_[0].Clear();
  fifo_[1].Clear();
  running_.assign(running_.size(), Running{});
  RestoreView(dump, [this](PolicyTask* task, const Enclave::TaskInfo& info) {
    task->tier = options_.tier_of(info.tid);
    if (info.on_cpu) {
      running_[info.cpu] = Running{task, 0};
    } else if (info.runnable) {
      Enqueue(task, /*front=*/false);
    }
  });
}

void CentralizedFifoPolicy::Enqueue(PolicyTask* task, bool front) {
  CHECK(!task->queued);
  task->queued = true;
  if (front) {
    fifo_[task->tier].PushFront(task);
  } else {
    fifo_[task->tier].Push(task);
  }
  // Publish to the fast-path ring: if a CPU idles before the agent's next
  // loop iteration, its pick_next_task hook runs this thread immediately.
  if (options_.use_fastpath && task->tier == 0 && enclave()->fastpath() != nullptr) {
    enclave()->fastpath()->Publish(0, task->tid);
  }
}

void CentralizedFifoPolicy::DequeueFromRunqueue(PolicyTask* task) {
  if (task->queued) {
    CHECK(fifo_[task->tier].Remove(task));
    task->queued = false;
  }
}

PolicyTask* CentralizedFifoPolicy::PopTier(int tier) {
  PolicyTask* task = fifo_[tier].Pop();
  if (task != nullptr) {
    task->queued = false;
  }
  return task;
}

PolicyTask* CentralizedFifoPolicy::PopNext() {
  PolicyTask* task = PopTier(0);
  return task != nullptr ? task : PopTier(1);
}

void CentralizedFifoPolicy::ClearRunning(int cpu, PolicyTask* task) {
  if (cpu >= 0 && cpu < static_cast<int>(running_.size()) && running_[cpu].task == task) {
    running_[cpu] = Running{};
  }
}

void CentralizedFifoPolicy::Requeue(int cpu, PolicyTask* task) {
  ClearRunning(cpu, task);
  if (!task->queued) {
    // Preempted / expired requests rejoin at the back (Shinjuku FIFO).
    Enqueue(task, /*front=*/false);
  }
}

void CentralizedFifoPolicy::TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  task->tier = options_.tier_of(task->tid);
  if (task->runnable && !task->queued) {
    Enqueue(task, /*front=*/false);
  }
}

void CentralizedFifoPolicy::TaskWakeup(AgentContext& ctx, PolicyTask* task,
                                       const Message& msg) {
  Requeue(msg.cpu, task);
}

void CentralizedFifoPolicy::TaskPreempted(AgentContext& ctx, PolicyTask* task,
                                          const Message& msg) {
  Requeue(msg.cpu, task);
}

void CentralizedFifoPolicy::TaskYield(AgentContext& ctx, PolicyTask* task,
                                      const Message& msg) {
  Requeue(msg.cpu, task);
}

void CentralizedFifoPolicy::TaskBlocked(AgentContext& ctx, PolicyTask* task,
                                        const Message& msg) {
  ClearRunning(msg.cpu, task);
  DequeueFromRunqueue(task);
}

void CentralizedFifoPolicy::TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  ClearRunning(task->assigned_cpu, task);
  DequeueFromRunqueue(task);
}

void CentralizedFifoPolicy::TaskDeparted(AgentContext& ctx, PolicyTask* task,
                                         const Message& msg) {
  TaskDead(ctx, task, msg);
}

AgentAction CentralizedFifoPolicy::Schedule(AgentContext& ctx) {
  // The base already drained the global queue (Fig 4: DrainMessageQueue()).
  ctx.Charge(options_.extra_loop_cost);
  auto& assignments = this->assignments();

  // 1. Timeslice rotation (Shinjuku: preempt after the allotted slice and
  // move the request to the back of the FIFO).
  const Duration slice = options_.preemption_timeslice;
  if (slice > 0) {
    for (int cpu = 0; cpu < static_cast<int>(running_.size()); ++cpu) {
      Running& run = running_[cpu];
      if (run.task == nullptr || ctx.start() - run.since < slice) {
        continue;
      }
      // Rotate only if someone of the same-or-higher priority is waiting.
      PolicyTask* next = nullptr;
      if (!fifo_[0].empty()) {
        next = PopTier(0);
      } else if (run.task->tier == 1 && !fifo_[1].empty()) {
        next = PopTier(1);
      }
      if (next != nullptr) {
        assignments.emplace_back(cpu, next);
        ++preemptions_;
      }
    }
  }

  // 2. Latency-critical wakeups preempt batch threads immediately.
  if (!fifo_[0].empty()) {
    for (int cpu = 0; cpu < static_cast<int>(running_.size()); ++cpu) {
      Running& run = running_[cpu];
      if (run.task == nullptr) {
        continue;
      }
      if (fifo_[0].empty()) {
        break;
      }
      if (run.task->tier == 1 &&
          std::none_of(assignments.begin(), assignments.end(),
                       [cpu](const auto& a) { return a.first == cpu; })) {
        assignments.emplace_back(cpu, PopTier(0));
        ++preemptions_;
      }
    }
  }

  // 3. Fill available CPUs (Fig 4: GetIdleCPUs()).
  const CpuMask avail = ctx.AvailableCpus();
  for (int cpu = avail.First(); cpu >= 0; cpu = avail.NextAfter(cpu)) {
    PolicyTask* next = PopNext();
    if (next == nullptr) {
      break;
    }
    ctx.Charge(ctx.kernel()->cost().agent_per_task_scan);
    assignments.emplace_back(cpu, next);
  }

  // 4. Group-commit all assignments (Fig 4: Schedule()), split into chunks
  // of at most max_group_commit transactions per syscall.
  const bool committed = CommitAssignments(
      ctx,
      [this, &ctx](int cpu, PolicyTask* task, bool ok) {
        if (ok) {
          running_[cpu] = Running{task, ctx.start() + ctx.cost()};
        } else if (task->runnable && !task->queued) {
          // Transaction failed: re-enqueue and retry next loop (Fig 4).
          Enqueue(task, /*front=*/true);
        }
      },
      static_cast<size_t>(options_.max_group_commit));

  // 5. Arm the next slice-expiry wakeup so preemption is punctual even when
  // no messages arrive. Pointless (and livelock-prone) unless someone is
  // actually waiting to rotate in.
  if (slice > 0 && queue_depth() > 0) {
    Time earliest_since = kTimeNever;
    for (const Running& run : running_) {
      if (run.task != nullptr) {
        earliest_since = std::min(earliest_since, run.since);
      }
    }
    if (earliest_since != kTimeNever) {
      const Time wake = NextSliceWakeup(earliest_since, slice);
      ctx.RequestWakeupAt(std::max(wake, ctx.start() + ctx.cost()));
    }
  }

  // Any drained message counts as progress (Fig 4 keeps spinning).
  return drained() > 0 || committed ? AgentAction::kRunAgain : AgentAction::kPollWait;
}

}  // namespace gs
