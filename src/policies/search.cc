#include "src/policies/search.h"

#include <algorithm>

namespace gs {

SearchPolicy::SearchPolicy(Options options)
    : GlobalAgentPolicy(options.global_cpu, /*hot_handoff=*/false),
      options_(options),
      placer_(TieredPlacer::Options{
          .ccx_aware = options.ccx_aware,
          .max_pending_before_migrate = options.max_pending_before_migrate}) {}

void SearchPolicy::Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) {
  GlobalAgentPolicy::Attached(process, enclave, kernel);
  kernel_ = kernel;
  placer_.Attach(kernel);
}

void SearchPolicy::Restore(const std::vector<Enclave::TaskInfo>& dump) {
  // Full view replacement (also the overflow-resync path).
  runqueue_.Clear();
  RestoreView(dump, [this](PolicyTask* task, const Enclave::TaskInfo& info) {
    if (!info.on_cpu && info.runnable) {
      task->queued = true;
      runqueue_.Push(task, 0);
    }
  });
}

void SearchPolicy::EnqueueRunnable(AgentContext& ctx, PolicyTask* task) {
  if (task->queued) {
    return;
  }
  // Min-heap key: elapsed runtime, read from the thread's status word.
  // A sleeper floor (as in CFS's min_vruntime placement) bounds how much
  // credit a rarely-running thread can carry, so long-living workers
  // (query type C) are not starved behind a stream of short-runtime wakers.
  const TaskStatusWord* status = ctx.ReadStatus(task->tid);
  int64_t runtime = status != nullptr ? status->runtime : 0;
  max_runtime_seen_ = std::max(max_runtime_seen_, runtime);
  runtime = std::max(runtime, max_runtime_seen_ - sleeper_window_);
  // The wakeup is the train point: each wakeup's eventual CCX accumulates
  // into the tid's frequency table, so Predict() tracks the modal home.
  if (options_.predictive_placement && task->last_cpu >= 0) {
    affinity_.Observe(task->tid, kernel_->topology().cpu(task->last_cpu).ccx);
  }
  task->queued = true;
  runqueue_.Push(task, runtime);
}

void SearchPolicy::TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  if (task->runnable) {
    EnqueueRunnable(ctx, task);
  }
}

void SearchPolicy::TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  EnqueueRunnable(ctx, task);
}

void SearchPolicy::TaskPreempted(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  EnqueueRunnable(ctx, task);
}

void SearchPolicy::TaskYield(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  EnqueueRunnable(ctx, task);
}

void SearchPolicy::TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  if (task->queued) {
    runqueue_.Remove(task);
    task->queued = false;
  }
}

void SearchPolicy::TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  if (task->queued) {
    runqueue_.Remove(task);
  }
  if (options_.predictive_placement) {
    affinity_.Forget(task->tid);
  }
}

void SearchPolicy::TaskDeparted(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  TaskDead(ctx, task, msg);
}

AgentAction SearchPolicy::Schedule(AgentContext& ctx) {
  CpuMask avail = ctx.AvailableCpus();
  // Walk the min-heap in runtime order; skip threads whose preferred CPUs
  // are busy and revisit them on the next loop iteration (§4.4). The copy
  // exists because the loop removes dispatched tasks from the runqueue.
  scratch_ordered_.assign(runqueue_.begin(), runqueue_.end());
  for (auto& [key, task] : scratch_ordered_) {
    if (avail.Empty()) {
      break;
    }
    ctx.Charge(kernel_->cost().agent_per_task_scan);
    const CpuMask candidates = avail & task->affinity;
    if (candidates.Empty()) {
      continue;  // revisit next iteration
    }
    PlacementHint hint;
    if (options_.predictive_placement) {
      hint.ccx = affinity_.Predict(task->tid);
    }
    const int cpu = placer_.Pick(ctx, *task, candidates, hint);
    if (cpu < 0) {
      continue;  // deferred for cache warmth
    }
    avail.Clear(cpu);
    runqueue_.Remove(task);
    task->queued = false;
    assignments().emplace_back(cpu, task);
  }

  const bool committed = CommitAssignments(
      ctx, [this](int cpu, PolicyTask* task, bool ok) {
        if (!ok && task->runnable && !task->queued) {
          task->queued = true;
          runqueue_.Push(task, 0);  // retry promptly
        }
      });

  // Deferred-for-warmth threads need a timed revisit even if nothing pokes.
  if (!runqueue_.empty() && options_.max_pending_before_migrate > 0) {
    ctx.RequestWakeupAt(ctx.start() + options_.max_pending_before_migrate);
  }
  return drained() > 0 || committed ? AgentAction::kRunAgain : AgentAction::kPollWait;
}

}  // namespace gs
