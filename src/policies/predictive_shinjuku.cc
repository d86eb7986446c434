#include "src/policies/predictive_shinjuku.h"

#include <algorithm>

#include "src/base/logging.h"

namespace gs {

PredictiveShinjukuPolicy::PredictiveShinjukuPolicy(Options options)
    : GlobalAgentPolicy(options.global_cpu, /*hot_handoff=*/true),
      options_(std::move(options)),
      predictor_(options_.predictor) {
  if (!options_.tier_of) {
    options_.tier_of = [](int64_t) { return 0; };
  }
  CHECK_GT(options_.rotation_slice, 0);
  CHECK_GE(options_.backstop_multiplier, 1);
}

void PredictiveShinjukuPolicy::Attached(AgentProcess* process, Enclave* enclave,
                                        Kernel* kernel) {
  GlobalAgentPolicy::Attached(process, enclave, kernel);
  running_.assign(kernel->topology().num_cpus(), Running{});
}

void PredictiveShinjukuPolicy::Restore(const std::vector<Enclave::TaskInfo>& dump) {
  // Full view replacement (also the overflow-resync path). Predictor state
  // survives: service-time history is still valid across a resync.
  for (FifoRunqueue& lane : lanes_) {
    lane.Clear();
  }
  running_.assign(running_.size(), Running{});
  states_.clear();
  RestoreView(dump, [this](PolicyTask* task, const Enclave::TaskInfo& info) {
    task->tier = options_.tier_of(info.tid);
    PredTask& st = AttachState(task);
    // No status-word context for a mid-flight interval: restart training at
    // the next wakeup and classify conservatively as short (the backstop
    // catches it if that is wrong).
    st.lane = task->tier != 0 ? kBatch : kShort;
    st.allowance = st.lane == kBatch ? options_.rotation_slice : kMinBackstop;
    if (info.on_cpu) {
      st.on_cpu = info.cpu;
      running_[info.cpu] = Running{task, 0};
    } else if (info.runnable) {
      Enqueue(task, /*front=*/false);
    }
  });
}

PredictiveShinjukuPolicy::PredTask& PredictiveShinjukuPolicy::AttachState(
    PolicyTask* task) {
  PredTask& st = states_[task->tid];
  task->user = &st;
  return st;
}

void PredictiveShinjukuPolicy::ClassifyWakeup(AgentContext& ctx, PolicyTask* task) {
  PredTask& st = StateOf(task);
  const TaskStatusWord* status = ctx.ReadStatus(task->tid);
  st.wake_runtime = status != nullptr ? status->runtime : 0;
  if (task->tier != 0) {
    st.lane = kBatch;
    st.allowance = options_.rotation_slice;
    return;
  }
  const Duration predicted = predictor_.Predict(task->tid);
  if (predicted >= options_.long_threshold) {
    st.lane = kLong;
    st.allowance = options_.rotation_slice;
    ++predicted_long_;
  } else {
    st.lane = kShort;
    st.allowance = std::max(predicted * options_.backstop_multiplier, kMinBackstop);
    ++predicted_short_;
  }
}

void PredictiveShinjukuPolicy::ObserveService(AgentContext& ctx, PolicyTask* task) {
  PredTask& st = StateOf(task);
  const TaskStatusWord* status = ctx.ReadStatus(task->tid);
  if (status == nullptr) {
    return;
  }
  const Duration observed = status->runtime - st.wake_runtime;
  if (observed > 0) {
    predictor_.Observe(task->tid, observed);
  }
}

void PredictiveShinjukuPolicy::Enqueue(PolicyTask* task, bool front) {
  CHECK(!task->queued);
  task->queued = true;
  if (front) {
    lanes_[StateOf(task).lane].PushFront(task);
  } else {
    lanes_[StateOf(task).lane].Push(task);
  }
}

void PredictiveShinjukuPolicy::Dequeue(PolicyTask* task) {
  if (task->queued) {
    CHECK(lanes_[StateOf(task).lane].Remove(task));
    task->queued = false;
  }
}

void PredictiveShinjukuPolicy::ClearRunning(PolicyTask* task) {
  PredTask& st = StateOf(task);
  if (st.on_cpu >= 0 && st.on_cpu < static_cast<int>(running_.size()) &&
      running_[st.on_cpu].task == task) {
    running_[st.on_cpu] = Running{};
  }
  st.on_cpu = -1;
}

PolicyTask* PredictiveShinjukuPolicy::PopRequestLane() {
  for (int lane : {kShort, kLong}) {
    PolicyTask* task = lanes_[lane].Pop();
    if (task != nullptr) {
      task->queued = false;
      return task;
    }
  }
  return nullptr;
}

PolicyTask* PredictiveShinjukuPolicy::PopNext() {
  PolicyTask* task = PopRequestLane();
  if (task != nullptr) {
    return task;
  }
  task = lanes_[kBatch].Pop();
  if (task != nullptr) {
    task->queued = false;
  }
  return task;
}

void PredictiveShinjukuPolicy::TaskNew(AgentContext& ctx, PolicyTask* task,
                                       const Message& msg) {
  task->tier = options_.tier_of(task->tid);
  AttachState(task);
  if (task->runnable) {
    ClassifyWakeup(ctx, task);
    Enqueue(task, /*front=*/false);
  }
}

void PredictiveShinjukuPolicy::TaskWakeup(AgentContext& ctx, PolicyTask* task,
                                          const Message& msg) {
  ClearRunning(task);
  if (!task->queued) {
    ClassifyWakeup(ctx, task);
    Enqueue(task, /*front=*/false);
  }
}

void PredictiveShinjukuPolicy::TaskPreempted(AgentContext& ctx, PolicyTask* task,
                                             const Message& msg) {
  // Mid-request preemption: the lane (possibly just demoted by the
  // backstop) and the wake_runtime baseline both stand — the status-word
  // delta at block time still measures the whole request.
  ClearRunning(task);
  if (!task->queued) {
    Enqueue(task, /*front=*/false);
  }
}

void PredictiveShinjukuPolicy::TaskYield(AgentContext& ctx, PolicyTask* task,
                                         const Message& msg) {
  ClearRunning(task);
  if (!task->queued) {
    Enqueue(task, /*front=*/false);
  }
}

void PredictiveShinjukuPolicy::TaskBlocked(AgentContext& ctx, PolicyTask* task,
                                           const Message& msg) {
  // Request complete: train on the exact observed service time.
  ObserveService(ctx, task);
  ClearRunning(task);
  Dequeue(task);
}

void PredictiveShinjukuPolicy::TaskDead(AgentContext& ctx, PolicyTask* task,
                                        const Message& msg) {
  ClearRunning(task);
  Dequeue(task);
  predictor_.Forget(task->tid);
  states_.erase(task->tid);
}

void PredictiveShinjukuPolicy::TaskDeparted(AgentContext& ctx, PolicyTask* task,
                                            const Message& msg) {
  TaskDead(ctx, task, msg);
}

AgentAction PredictiveShinjukuPolicy::Schedule(AgentContext& ctx) {
  auto& assignments = this->assignments();

  // 1. Fill idle CPUs first. Probe-Shinjuku preempts before it ever looks
  // at the idle set; doing it in this order means a long request is never
  // preempted to serve a waiter an idle CPU could have taken.
  const CpuMask avail = ctx.AvailableCpus();
  for (int cpu = avail.First(); cpu >= 0; cpu = avail.NextAfter(cpu)) {
    PolicyTask* next = PopNext();
    if (next == nullptr) {
      break;
    }
    ctx.Charge(ctx.kernel()->cost().agent_per_task_scan);
    assignments.emplace_back(cpu, next);
  }

  // 2. Latency-critical work still waiting means every CPU is busy: preempt,
  // in lane order of the victim — batch immediately, longs after their
  // rotation slice, predicted-shorts only past their backstop (that is the
  // mispredict detector).
  if (!lanes_[kShort].empty() || !lanes_[kLong].empty()) {
    for (int cpu = 0; cpu < static_cast<int>(running_.size()); ++cpu) {
      Running& run = running_[cpu];
      if (run.task == nullptr) {
        continue;
      }
      if (lanes_[kShort].empty() && lanes_[kLong].empty()) {
        break;
      }
      PredTask& st = StateOf(run.task);
      const Duration ran = ctx.start() - run.since;
      bool preempt = false;
      if (st.lane == kBatch) {
        preempt = true;
      } else if (ran >= st.allowance) {
        if (st.lane == kShort) {
          // Backstop tripped: the prediction was wrong. Demote so the
          // preemption hook re-enqueues it as a long, and so every future
          // slice for this interval is a plain rotation slice.
          st.lane = kLong;
          st.allowance = options_.rotation_slice;
          ++backstop_demotions_;
        }
        preempt = true;
      }
      if (preempt) {
        PolicyTask* next = PopRequestLane();
        if (next != nullptr) {
          assignments.emplace_back(cpu, next);
          ++preemptions_;
        }
      }
    }
  }

  // 3. Group-commit all assignments. Unlike probe-Shinjuku, a drain alone
  // is not progress: the agent poll-waits until something commits.
  const bool progress = CommitAssignments(
      ctx, [this, &ctx](int cpu, PolicyTask* task, bool ok) {
        if (ok) {
          StateOf(task).on_cpu = cpu;
          running_[cpu] = Running{task, ctx.start() + ctx.cost()};
        } else if (task->runnable && !task->queued) {
          Enqueue(task, /*front=*/true);
        }
      });

  // 4. Arm the earliest allowance expiry — but only while someone is
  // waiting to rotate in. When only predicted-shorts are running and the
  // queues are empty (the common case), no timer is armed at all: that is
  // the probe the predictor saves.
  if (queue_depth() > 0) {
    Time earliest = kTimeNever;
    for (const Running& run : running_) {
      if (run.task == nullptr) {
        continue;
      }
      const PredTask& st = StateOf(run.task);
      if (st.lane == kBatch) {
        continue;  // preempted on demand, no timer needed
      }
      earliest = std::min(earliest, run.since + st.allowance);
    }
    if (earliest != kTimeNever) {
      ctx.RequestWakeupAt(std::max(earliest, ctx.start() + ctx.cost()));
    }
  }

  return progress ? AgentAction::kRunAgain : AgentAction::kPollWait;
}

}  // namespace gs
