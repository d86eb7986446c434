#include "src/kernel/kernel.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/sim/sched_tag.h"

namespace gs {

const char* ToString(TaskState state) {
  switch (state) {
    case TaskState::kCreated:
      return "created";
    case TaskState::kRunnable:
      return "runnable";
    case TaskState::kRunning:
      return "running";
    case TaskState::kBlocked:
      return "blocked";
    case TaskState::kDead:
      return "dead";
  }
  return "?";
}

Kernel::Kernel(EventLoop* loop, Topology topology, CostModel cost,
               StatsRegistry* stats_registry)
    : loop_(loop),
      topology_(std::move(topology)),
      cost_(cost),
      stats_(stats_registry) {
  CHECK(stats_ != nullptr) << "a kernel needs a stats registry";
  StatsRegistry& stats = *stats_;
  stat_switch_task_ = stats.GetCounter("kernel_context_switch_total", {{"kind", "task"}});
  stat_switch_agent_ = stats.GetCounter("kernel_context_switch_total", {{"kind", "agent"}});
  stat_ipi_local_ = stats.GetCounter("kernel_ipi_total", {{"cross_numa", "false"}});
  stat_ipi_cross_numa_ = stats.GetCounter("kernel_ipi_total", {{"cross_numa", "true"}});
  stat_ticks_ = stats.GetCounter("kernel_tick_total");
  stat_tick_cost_ns_ = stats.GetCounter("kernel_tick_cost_ns_total");
  cpus_.resize(topology_.num_cpus());
  occupant_priority_.assign(topology_.num_cpus(), kNoOccupant);
  tick_enabled_.assign(topology_.num_cpus(), true);
  ticks_delivered_.assign(topology_.num_cpus(), 0);
  for (int i = 0; i < topology_.num_cpus(); ++i) {
    cpus_[i].id = i;
    idle_cpus_.Set(i);  // every CPU boots idle
  }
  // Staggered per-CPU timer ticks, like Linux. Periodic: the tick re-arms in
  // place instead of re-scheduling itself, so the steady-state per-CPU tick
  // costs no push/pop churn.
  const Duration period = cost_.tick_period;
  for (int i = 0; i < topology_.num_cpus(); ++i) {
    const Duration phase = period * (i + 1) / topology_.num_cpus();
    loop_->SchedulePeriodic(phase, period, [this, i] { OnTick(i); },
                            MakeSchedTag(SchedTagKind::kTimer, i));
  }
}

Kernel::~Kernel() = default;

void Kernel::InstallClasses(std::vector<std::unique_ptr<SchedClass>> classes,
                            int default_index) {
  CHECK(classes_.empty()) << "classes already installed";
  CHECK_GE(default_index, 0);
  CHECK_LT(default_index, static_cast<int>(classes.size()));
  CHECK_LT(static_cast<int>(classes.size()), kNoOccupant);
  classes_ = std::move(classes);
  default_index_ = default_index;
  for (size_t i = 0; i < classes_.size(); ++i) {
    classes_[i]->priority_index_ = static_cast<int>(i);
    classes_[i]->Attach(this);
  }
}

Task* Kernel::CreateTask(const std::string& name, SchedClass* cls) {
  if (cls == nullptr) {
    cls = default_class();
  }
  Task* ptr = task_slab_.New(next_tid_++, name);
  tasks_.push_back(ptr);
  CHECK_EQ(ptr->tid(), static_cast<int64_t>(tasks_.size())) << "tids must stay dense";
  ptr->set_sched_class(cls);
  cls->TaskNew(ptr);
  return ptr;
}

void Kernel::Wake(Task* task) {
  CHECK(task->state() == TaskState::kCreated || task->state() == TaskState::kBlocked)
      << task->name() << " is " << ToString(task->state());
  // ttwu-on_cpu race: the task blocked but its CPU hasn't descheduled it yet
  // (the resched event is pending). Defer the wakeup until the deschedule
  // completes, as try_to_wake_up() does.
  if (task->state() == TaskState::kBlocked && task->cpu() >= 0 &&
      cpus_[task->cpu()].current == task) {
    task->set_wake_pending(true);
    return;
  }
  task->set_state(TaskState::kRunnable);
  task->set_runnable_since(now());
  trace_.Record(now(), TraceEventType::kWakeup, task->cpu(), task->tid());
  task->sched_class()->EnqueueWake(task);
}

void Kernel::Block(Task* task) {
  CHECK(task->state() == TaskState::kRunning) << task->name();
  task->set_state(TaskState::kBlocked);
  trace_.Record(now(), TraceEventType::kBlock, task->cpu(), task->tid());
  ReschedCpu(task->cpu());
}

void Kernel::Exit(Task* task) {
  CHECK(task->state() == TaskState::kRunning) << task->name();
  UpdateProgress(task->cpu());
  task->set_state(TaskState::kDead);
  trace_.Record(now(), TraceEventType::kExit, task->cpu(), task->tid());
  // Synchronous death bookkeeping (the task_dead hook): by the time Exit
  // returns, no class may still advertise the task as managed.
  task->sched_class()->TaskExited(task);
  ReschedCpu(task->cpu());
}

void Kernel::Yield(Task* task) {
  CHECK(task->state() == TaskState::kRunning) << task->name();
  cpus_[task->cpu()].yielded = true;
  ReschedCpu(task->cpu());
}

void Kernel::Kill(Task* task) {
  switch (task->state()) {
    case TaskState::kRunning:
      Exit(task);
      return;
    case TaskState::kRunnable:
      // May be queued in its class or mid-switch onto a CPU; the class forgets
      // it here and FinishSwitch tolerates a dead incoming task.
      task->sched_class()->TaskDeparted(task);
      task->set_state(TaskState::kDead);
      return;
    case TaskState::kCreated:
    case TaskState::kBlocked:
      task->set_state(TaskState::kDead);
      // No PutPrev will ever run for a task that dies off-CPU; the class
      // must still drop its bookkeeping (ghOSt: status word + enclave table).
      if (task->sched_class() != nullptr) {
        task->sched_class()->TaskExited(task);
      }
      return;
    case TaskState::kDead:
      return;
  }
}

int Kernel::AddIdleListener(IdleListener listener) {
  const int handle = next_listener_id_++;
  idle_listeners_.emplace_back(handle, std::move(listener));
  return handle;
}

void Kernel::RemoveIdleListener(int handle) {
  for (auto it = idle_listeners_.begin(); it != idle_listeners_.end(); ++it) {
    if (it->first == handle) {
      idle_listeners_.erase(it);
      return;
    }
  }
}

void Kernel::SetAffinity(Task* task, const CpuMask& mask) {
  CHECK(!mask.Empty());
  task->set_affinity(mask);
  task->sched_class()->AffinityChanged(task);
  if (task->state() == TaskState::kRunning && !mask.IsSet(task->cpu())) {
    ReschedCpu(task->cpu());
  }
}

void Kernel::SetNice(Task* task, int nice) {
  CHECK_GE(nice, -20);
  CHECK_LE(nice, 19);
  task->set_nice(nice);
}

void Kernel::SetSchedClass(Task* task, SchedClass* cls) {
  SchedClass* old = task->sched_class();
  if (old == cls) {
    return;
  }
  old->TaskDeparted(task);
  task->set_sched_class(cls);
  // The cached occupant priority of a CPU running the task, or switching to
  // it, names the old class until refreshed.
  for (int cpu : {task->cpu(), task->inbound_cpu()}) {
    if (cpu >= 0) {
      RefreshCpuCaches(cpu);
    }
  }
  cls->TaskNew(task);
  if (task->state() == TaskState::kRunning) {
    // Keep running; the new class adopts it at the next PutPrev. Re-evaluate
    // in case something in the new order should preempt it.
    ReschedCpu(task->cpu());
  } else if (task->state() == TaskState::kRunnable && task->inbound_cpu() >= 0) {
    // Mid-switch: no runqueue holds it and the switch in flight runs it, so
    // it is adopted like a running task (the resched waits for the switch).
    ReschedCpu(task->inbound_cpu());
  } else if (task->state() == TaskState::kRunnable) {
    cls->EnqueueWake(task);
  }
}

void Kernel::ReschedCpu(int cpu) {
  CpuState& cs = cpus_[cpu];
  if (cs.resched_scheduled) {
    return;
  }
  cs.resched_scheduled = true;
  loop_->ScheduleAfter(0, [this, cpu] {
    cpus_[cpu].resched_scheduled = false;
    ReschedNow(cpu);
  }, MakeSchedTag(SchedTagKind::kCpu, cpu));
}

Duration Kernel::IpiDelay(int to_cpu, bool cross_numa) {
  (cross_numa ? stat_ipi_cross_numa_ : stat_ipi_local_)->Inc();
  Duration delay = cost_.ipi_flight + cost_.ipi_handle;
  if (cross_numa) {
    delay += cost_.ipi_flight_cross_numa_extra;
  }
  if (fault_injector_ != nullptr) {
    // Delayed delivery or a drop recovered by redelivery — either way the
    // interrupt eventually lands, just later than the cost model promises.
    delay += fault_injector_->OnIpi(to_cpu);
  }
  return delay;
}

Duration Kernel::CurrentElapsed(int cpu) const {
  const CpuState& cs = cpus_[cpu];
  if (cs.current == nullptr) {
    return 0;
  }
  return now() - cs.pick_time;
}

uint64_t Kernel::total_context_switches() const {
  uint64_t total = 0;
  for (const CpuState& cs : cpus_) {
    total += cs.context_switches;
  }
  return total;
}

Duration Kernel::CpuBusyTime(int cpu) const {
  const CpuState& cs = cpus_[cpu];
  Duration busy = cs.busy_ns;
  if (cs.busy) {
    busy += now() - cs.busy_since;
  }
  return busy;
}

// ---- Internal machinery -------------------------------------------------------

void Kernel::ReschedNow(int cpu) {
  CpuState& cs = cpus_[cpu];
  if (cs.switching) {
    cs.resched_pending = true;
    return;
  }

  Task* old = cs.current;
  bool old_resumable = false;
  if (old != nullptr) {
    UpdateProgress(cpu);
    CancelCompletion(cpu);
    PutPrevReason reason = PutPrevReason::kPreempted;
    if (old->state() == TaskState::kBlocked) {
      reason = PutPrevReason::kBlocked;
    } else if (old->state() == TaskState::kDead) {
      reason = PutPrevReason::kExited;
    } else if (cs.yielded) {
      reason = PutPrevReason::kYielded;
    }
    cs.yielded = false;
    if (reason == PutPrevReason::kPreempted || reason == PutPrevReason::kYielded) {
      old->set_state(TaskState::kRunnable);
      old->set_runnable_since(now());
      old_resumable = true;
    }
    old->set_last_cpu(cpu);
    old->set_last_descheduled(now());
    old->set_cpu(-1);
    cs.current = nullptr;
    RefreshCpuCaches(cpu);
    trace_.Record(now(), TraceEventType::kSwitchOut, cpu, old->tid(),
                  static_cast<int64_t>(reason));
    old->sched_class()->PutPrev(old, cpu, reason);
    if (old->wake_pending() && old->state() == TaskState::kBlocked) {
      old->set_wake_pending(false);
      Wake(old);
    }
  }

  Task* next = nullptr;
  for (auto& cls : classes_) {
    next = cls->PickNext(cpu);
    if (next != nullptr) {
      break;
    }
  }

  if (next == nullptr) {
    SetBusy(cpu, false);
    return;
  }
  CHECK(next->state() == TaskState::kRunnable)
      << next->name() << " picked while " << ToString(next->state());

  if (next == old) {
    // Re-picked the same task: resume, no context-switch cost. But a task
    // that *blocked* and was re-woken inside the deschedule window (ttwu
    // wake_pending) is not resuming — it went through schedule() and must be
    // treated as freshly placed, or its on-scheduled hook is lost (a
    // blocked-then-instantly-rewoken agent would occupy the CPU without ever
    // running another iteration).
    StartRunning(cpu, next, /*fresh_placement=*/!old_resumable);
    return;
  }

  cs.switching = true;
  cs.switching_to = next;
  RefreshCpuCaches(cpu);
  next->set_inbound_cpu(cpu);
  ++cs.context_switches;
  (IsAgent(next) ? stat_switch_agent_ : stat_switch_task_)->Inc();
  SetBusy(cpu, true);
  const Duration cost = IsAgent(next) ? cost_.agent_context_switch : cost_.context_switch;
  cs.switch_event = loop_->ScheduleAfter(cost, [this, cpu] { FinishSwitch(cpu); },
                                         MakeSchedTag(SchedTagKind::kCpu, cpu));
}

void Kernel::FinishSwitch(int cpu) {
  CpuState& cs = cpus_[cpu];
  cs.switching = false;
  cs.switch_event = kInvalidEventId;
  Task* next = cs.switching_to;
  cs.switching_to = nullptr;
  RefreshCpuCaches(cpu);
  CHECK(next != nullptr);
  if (next->inbound_cpu() == cpu) {
    next->set_inbound_cpu(-1);
  }
  if (next->state() != TaskState::kRunnable) {
    // The incoming task was killed while the switch was in flight.
    cs.resched_pending = false;
    ReschedCpu(cpu);
    return;
  }
  StartRunning(cpu, next, /*fresh_placement=*/true);
  if (cs.resched_pending) {
    cs.resched_pending = false;
    ReschedCpu(cpu);
  }
}

void Kernel::StartRunning(int cpu, Task* task, bool fresh_placement) {
  CpuState& cs = cpus_[cpu];
  cs.current = task;
  RefreshCpuCaches(cpu);
  task->set_state(TaskState::kRunning);
  task->set_cpu(cpu);
  cs.pick_time = now();
  trace_.Record(now(), TraceEventType::kSwitchIn, cpu, task->tid());
  SetBusy(cpu, true);

  if (fresh_placement) {
    if (task->has_burst()) {
      task->InflateBurst(WarmthFactor(*task, cpu));
    }
    if (task->on_scheduled()) {
      task->on_scheduled()(task);
      // The hook may have blocked/yielded/exited the task; if so a resched is
      // already queued and there is nothing to arm.
      if (task->state() != TaskState::kRunning || cs.yielded) {
        cs.run_start = now();
        cs.speed = SpeedFactor(*task, cpu);
        return;
      }
    }
  }

  cs.run_start = now();
  cs.speed = SpeedFactor(*task, cpu);
  // has_pending_burst_done: a zero-length burst whose completion event was
  // canceled by a same-instant deschedule still owes its callback — without
  // the re-arm the callback is lost and its owner (e.g. the agent iteration
  // loop) wedges forever.
  if (task->has_burst() || task->has_pending_burst_done()) {
    ArmCompletion(cpu);
  } else {
    // Only agents may occupy a CPU without pending work (poll-wait / spin).
    CHECK(IsAgent(task)) << task->name() << " scheduled with no work";
  }
  task->sched_class()->TaskStarted(cpu, task);
}

void Kernel::UpdateProgress(int cpu) {
  CpuState& cs = cpus_[cpu];
  Task* task = cs.current;
  if (task == nullptr) {
    return;
  }
  const Duration elapsed = now() - cs.run_start;
  if (elapsed <= 0) {
    return;
  }
  auto progress =
      static_cast<Duration>(std::llround(static_cast<double>(elapsed) * cs.speed));
  // Rounding may not consume the final nanosecond: only the completion event
  // finishes a burst (otherwise a preemption at just the wrong instant would
  // strand a task with zero remaining work and an unfired callback).
  if (task->has_burst()) {
    progress = std::min(progress, task->burst_remaining() - 1);
  }
  task->ConsumeBurst(progress);
  task->AddRuntime(elapsed);
  cs.run_start = now();
}

void Kernel::ArmCompletion(int cpu) {
  CpuState& cs = cpus_[cpu];
  Task* task = cs.current;
  CHECK(task != nullptr);
  const double speed = cs.speed > 0 ? cs.speed : 1.0;
  const auto remaining = static_cast<Duration>(
      std::ceil(static_cast<double>(task->burst_remaining()) / speed));
  // Re-arming (a sibling's SMT re-rate, a tick's stolen time) moves the
  // pending completion in place; Reschedule draws its seq exactly where
  // Cancel + ScheduleAfter would. An event of the instant being fired cannot
  // move, so it takes the cancel-and-schedule path.
  if (cs.completion_event != kInvalidEventId &&
      loop_->Reschedule(cs.completion_event, now() + remaining)) {
    return;
  }
  CancelCompletion(cpu);
  cs.completion_event = loop_->ScheduleAfter(remaining, [this, cpu] { BurstComplete(cpu); },
                                             MakeSchedTag(SchedTagKind::kCpu, cpu));
}

void Kernel::CancelCompletion(int cpu) {
  CpuState& cs = cpus_[cpu];
  if (cs.completion_event != kInvalidEventId) {
    loop_->Cancel(cs.completion_event);
    cs.completion_event = kInvalidEventId;
  }
}

void Kernel::BurstComplete(int cpu) {
  CpuState& cs = cpus_[cpu];
  cs.completion_event = kInvalidEventId;
  Task* task = cs.current;
  CHECK(task != nullptr);
  UpdateProgress(cpu);
  // Rounding guard: the completion event fired, so the burst is done.
  task->ConsumeBurst(task->burst_remaining());

  Task::BurstDoneFn done = task->TakeBurstDone();
  if (done) {
    done(task);
  }
  if (cs.current != task) {
    return;
  }
  if (task->state() == TaskState::kRunning && !cs.yielded) {
    if (task->has_burst()) {
      if (cs.completion_event == kInvalidEventId) {
        cs.run_start = now();
        ArmCompletion(cpu);
      }
    } else {
      // Agents may spin awaiting work; everyone else must have disposed of
      // themselves (block/exit/yield) or started another burst.
      CHECK(IsAgent(task)) << task->name()
                           << ": burst-done callback left task running with no work";
    }
  }
}

void Kernel::OnTick(int cpu) {
  CpuState& cs = cpus_[cpu];
  if (tick_enabled_[cpu]) {
    ++ticks_delivered_[cpu];
    stat_ticks_->Inc();
    Task* current = cs.current;
    if (current != nullptr && !cs.switching) {
      UpdateProgress(cpu);
      if (cost_.tick_cost > 0 && current->has_burst()) {
        // The interrupt steals CPU time from the running task (for a vCPU
        // this is a VM-exit + re-entry).
        current->AddBurst(cost_.tick_cost);
        stat_tick_cost_ns_->Inc(cost_.tick_cost);
        ArmCompletion(cpu);
      }
    }
    for (auto& cls : classes_) {
      if (current != nullptr && current->sched_class() == cls.get()) {
        cls->TaskTick(cpu, current);
      } else {
        cls->IdleTick(cpu);
      }
    }
  }
  // The tick is a periodic event: the loop re-arms it in place.
}

double Kernel::SpeedFactor(const Task& task, int cpu) const {
  const int sibling = topology_.cpu(cpu).sibling;
  if (sibling < 0) {
    return 1.0;
  }
  const CpuState& sib = cpus_[sibling];
  const bool sibling_busy = sib.current != nullptr || sib.switching;
  if (!sibling_busy) {
    return 1.0;
  }
  return IsAgent(&task) ? cost_.agent_smt_contention_factor : cost_.smt_contention_factor;
}

void Kernel::RerateSibling(int cpu) {
  const int sibling = topology_.cpu(cpu).sibling;
  if (sibling < 0) {
    return;
  }
  CpuState& sib = cpus_[sibling];
  if (sib.current == nullptr || sib.switching) {
    return;
  }
  UpdateProgress(sibling);
  sib.speed = SpeedFactor(*sib.current, sibling);
  if (sib.completion_event != kInvalidEventId) {
    ArmCompletion(sibling);
  }
}

void Kernel::SetBusy(int cpu, bool busy) {
  CpuState& cs = cpus_[cpu];
  if (cs.busy == busy) {
    return;
  }
  cs.busy = busy;
  if (busy) {
    cs.busy_since = now();
  } else {
    cs.busy_ns += now() - cs.busy_since;
  }
  RerateSibling(cpu);
  for (const auto& [handle, listener] : idle_listeners_) {
    listener(cpu, !busy);
  }
}

double Kernel::WarmthFactor(const Task& task, int cpu) const {
  if (task.last_cpu() < 0) {
    return 1.0;  // never ran: no cache state to lose
  }
  const Duration away = now() - task.last_descheduled();
  if (away > cost_.warmth_decay) {
    return cost_.warmth_cold_factor;
  }
  switch (topology_.Distance(task.last_cpu(), cpu)) {
    case PlacementDistance::kSameCpu:
    case PlacementDistance::kSameCore:
      return cost_.warmth_same_core;
    case PlacementDistance::kSameCcx:
      return cost_.warmth_same_ccx;
    case PlacementDistance::kSameNuma:
      return cost_.warmth_same_numa;
    case PlacementDistance::kCrossNuma:
      return cost_.warmth_cross_numa;
  }
  return 1.0;
}

}  // namespace gs
