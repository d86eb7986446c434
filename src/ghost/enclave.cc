#include "src/ghost/enclave.h"

#include <algorithm>
#include <set>
#include <utility>

#include "src/ghost/ghost_class.h"
#include "src/kernel/agent_class.h"
#include "src/sim/sched_tag.h"

namespace gs {

const char* ToString(MessageType type) {
  switch (type) {
    case MessageType::kTaskNew:
      return "THREAD_CREATED";
    case MessageType::kTaskBlocked:
      return "THREAD_BLOCKED";
    case MessageType::kTaskPreempted:
      return "THREAD_PREEMPTED";
    case MessageType::kTaskYield:
      return "THREAD_YIELD";
    case MessageType::kTaskDead:
      return "THREAD_DEAD";
    case MessageType::kTaskWakeup:
      return "THREAD_WAKEUP";
    case MessageType::kTaskAffinity:
      return "THREAD_AFFINITY";
    case MessageType::kTaskDeparted:
      return "THREAD_DEPARTED";
    case MessageType::kTimerTick:
      return "TIMER_TICK";
    case MessageType::kAgentWakeup:
      return "AGENT_WAKEUP";
  }
  return "?";
}

const char* ToString(TxnStatus status) {
  switch (status) {
    case TxnStatus::kPending:
      return "PENDING";
    case TxnStatus::kCommitted:
      return "COMMITTED";
    case TxnStatus::kEStale:
      return "ESTALE";
    case TxnStatus::kENotRunnable:
      return "ENOTRUNNABLE";
    case TxnStatus::kECpuBusy:
      return "ECPUBUSY";
    case TxnStatus::kETxnPending:
      return "ETXNPENDING";
    case TxnStatus::kEInvalid:
      return "EINVAL";
    case TxnStatus::kEAborted:
      return "EABORTED";
    case TxnStatus::kENoAgent:
      return "ENOAGENT";
  }
  return "?";
}

Enclave::Enclave(Kernel* kernel, GhostClass* ghost_class, AgentClass* agent_class,
                 CpuMask cpus, Config config)
    : kernel_(kernel),
      ghost_class_(ghost_class),
      agent_class_(agent_class),
      cpus_(cpus),
      config_(config) {
  CHECK(!cpus_.Empty());
  cpu_queues_.assign(kernel_->topology().num_cpus(), nullptr);
  agents_.assign(kernel_->topology().num_cpus(), nullptr);

  StatsRegistry& stats = *kernel_->stats();
  for (int t = 0; t <= static_cast<int>(MessageType::kAgentWakeup); ++t) {
    stat_msg_post_.push_back(stats.GetCounter(
        "ghost_msg_post_total", {{"type", ToString(static_cast<MessageType>(t))}}));
  }
  for (int s = 0; s <= static_cast<int>(TxnStatus::kENoAgent); ++s) {
    stat_txn_status_.push_back(stats.GetCounter(
        "txn_commit_total", {{"status", ToString(static_cast<TxnStatus>(s))}}));
  }
  stat_msg_drop_ = stats.GetCounter("ghost_msg_drop_total");
  stat_msg_deliver_ = stats.GetCounter("ghost_msg_deliver_total");
  stat_group_commit_size_ = stats.GetHistogram("ghost_group_commit_size");
  stat_sched_latency_ns_ = stats.GetHistogram("ghost_sched_latency_ns");

  ghost_class_->AddEnclave(this);
  default_queue_ = CreateQueue(config_.default_queue_capacity);

  idle_listener_handle_ = kernel_->AddIdleListener(
      [this](int cpu, bool idle) { OnCpuIdleTransition(cpu, idle); });

  if (config_.watchdog_timeout > 0) {
    ScheduleWatchdog();
  }
}

Enclave::~Enclave() {
  if (!destroyed_) {
    Destroy();
  }
}

void Enclave::ScheduleWatchdog() {
  // Periodic: one armed event for the enclave's lifetime. Destroy() cancels
  // it — including from inside WatchdogScan itself, which suppresses the
  // re-arm.
  watchdog_event_ = kernel_->loop()->SchedulePeriodic(
      config_.watchdog_period, config_.watchdog_period,
      [this] { WatchdogScan(); },
      MakeSchedTag(SchedTagKind::kWatchdog, 0));
}

void Enclave::WatchdogScan() {
  if (destroyed_ || config_.watchdog_timeout <= 0) {
    return;
  }
  const Time now = kernel_->now();
  for (const GhostTask* gt : tasks_by_tid_) {
    const Task* task = gt->task;
    // A thread's wait is measured from the later of its wakeup and the last
    // agent handoff (registration / queue resync): a freshly installed agent
    // inherits threads that may have been runnable through the entire
    // upgrade window, and must get a full timeout to schedule them before
    // the watchdog declares it unfit (§3.4).
    const Time waiting_since = std::max(task->runnable_since(), watchdog_reset_);
    if (task->state() == TaskState::kRunnable &&
        now - waiting_since > config_.watchdog_timeout) {
      LOG(WARNING) << "ghOSt watchdog: " << task->name() << " runnable for "
                   << ToMillis(now - task->runnable_since())
                   << " ms without being scheduled; destroying enclave";
      Destroy();
      return;
    }
  }
}

void Enclave::Destroy() {
  if (destroyed_) {
    return;
  }
  destroyed_ = true;
  if (tickless_) {
    SetTickless(false);
    tickless_ = true;  // remember the mode for post-mortem inspection
  }
  if (watchdog_event_ != kInvalidEventId) {
    kernel_->loop()->Cancel(watchdog_event_);
    watchdog_event_ = kInvalidEventId;
  }
  kernel_->RemoveIdleListener(idle_listener_handle_);

  // Every managed thread falls back to the default scheduler (CFS). Collect
  // first: SetSchedClass mutates tasks_ via OnTaskDeparted.
  std::vector<Task*> managed;
  managed.reserve(tasks_by_tid_.size());
  for (const GhostTask* gt : tasks_by_tid_) {
    managed.push_back(gt->task);
  }
  for (Task* task : managed) {
    kernel_->SetSchedClass(task, kernel_->default_class());
  }
  CHECK_EQ(num_tasks(), 0);

  // Kill the agents.
  for (int cpu = 0; cpu < static_cast<int>(agents_.size()); ++cpu) {
    Task* agent = agents_[cpu];
    if (agent == nullptr) {
      continue;
    }
    kernel_->Kill(agent);
    agent_class_->UnregisterAgent(cpu, agent);
    agents_[cpu] = nullptr;
  }
  poll_waiters_.clear();

  ghost_class_->RemoveEnclave(this);
  if (destroy_listener_) {
    destroy_listener_();
  }
}

// ---- Threads ------------------------------------------------------------------

void Enclave::AddTask(Task* task) {
  CHECK(!destroyed_);
  CHECK(task->ghost_state() == nullptr) << task->name() << " already in an enclave";
  GhostTask* gt = task_slab_.New();
  gt->task = task;
  gt->enclave = this;
  gt->queue = default_queue_;
  gt->gen = next_task_gen_++;
  task->set_ghost_state(gt);
  // Keep the deterministic-iteration view sorted by tid (tids are usually
  // inserted in increasing order, so this is normally a push_back).
  auto pos = std::lower_bound(tasks_by_tid_.begin(), tasks_by_tid_.end(), gt,
                              [](const GhostTask* a, const GhostTask* b) {
                                return a->task->tid() < b->task->tid();
                              });
  tasks_by_tid_.insert(pos, gt);
  kernel_->SetSchedClass(task, ghost_class_);
}

void Enclave::RemoveTask(Task* task) {
  CHECK(task->ghost_state() != nullptr);
  kernel_->SetSchedClass(task, kernel_->default_class());
}

void Enclave::EraseTask(GhostTask* gt) {
  auto pos = std::lower_bound(tasks_by_tid_.begin(), tasks_by_tid_.end(), gt,
                              [](const GhostTask* a, const GhostTask* b) {
                                return a->task->tid() < b->task->tid();
                              });
  CHECK(pos != tasks_by_tid_.end() && *pos == gt);
  tasks_by_tid_.erase(pos);
  task_slab_.Delete(gt);
}

const TaskStatusWord* Enclave::task_status(int64_t tid) {
  GhostTask* gt = Find(tid);
  return gt == nullptr ? nullptr : &gt->status;
}

std::vector<Enclave::TaskInfo> Enclave::TaskDump() const {
  std::vector<TaskInfo> dump;
  dump.reserve(tasks_by_tid_.size());
  for (const GhostTask* gt : tasks_by_tid_) {
    TaskInfo info;
    info.tid = gt->task->tid();
    info.runnable = gt->status.runnable;
    info.on_cpu = gt->status.on_cpu;
    info.cpu = gt->status.cpu;
    info.tseq = gt->tseq;
    info.affinity = gt->task->affinity();
    dump.push_back(info);
  }
  return dump;
}

// ---- Queues -------------------------------------------------------------------

MessageQueue* Enclave::CreateQueue(size_t capacity) {
  auto queue = std::make_unique<MessageQueue>(next_queue_id_++, capacity);
  MessageQueue* ptr = queue.get();
  queues_.push_back(std::move(queue));
  return ptr;
}

void Enclave::DestroyQueue(MessageQueue* queue) {
  CHECK_NE(queue, default_queue_) << "cannot destroy the default queue";
  for (const GhostTask* gt : tasks_by_tid_) {
    CHECK(gt->queue != queue) << "queue still has associated threads";
  }
  for (MessageQueue*& q : cpu_queues_) {
    if (q == queue) {
      q = default_queue_;
    }
  }
  queues_.erase(std::find_if(queues_.begin(), queues_.end(),
                             [queue](const auto& q) { return q.get() == queue; }));
}

bool Enclave::AssociateQueue(int64_t tid, MessageQueue* queue) {
  GhostTask* gt = Find(tid);
  if (gt == nullptr) {
    // The thread already departed (died or was removed): the agent is acting
    // on a stale message. An ESRCH-style failure, not a kernel panic.
    return false;
  }
  if (gt->queue == queue) {
    return true;
  }
  if (gt->pending_msgs > 0) {
    // The agent must drain the original queue and retry (§3.1).
    return false;
  }
  gt->queue = queue;
  return true;
}

void Enclave::ConfigQueueWakeup(MessageQueue* queue, Task* agent) {
  queue->set_wakeup_agent(agent);
}

void Enclave::SetCpuQueue(int cpu, MessageQueue* queue) {
  CHECK(cpus_.IsSet(cpu));
  CHECK_LT(cpu, static_cast<int>(cpu_queues_.size()));
  cpu_queues_[cpu] = queue;
}

std::optional<Message> Enclave::PopMessage(MessageQueue* queue) {
  std::optional<Message> msg = queue->Pop();
  if (msg.has_value()) {
    stat_msg_deliver_->Inc();
  }
  if (msg.has_value() && msg->tid != 0) {
    GhostTask* gt = Find(msg->tid);
    if (gt != nullptr && gt->pending_msgs > 0) {
      --gt->pending_msgs;
    }
  }
  return msg;
}

void Enclave::FlushAllQueues() {
  for (auto& queue : queues_) {
    while (queue->Pop().has_value()) {
    }
  }
  for (GhostTask* gt : tasks_by_tid_) {
    gt->pending_msgs = 0;
    gt->resync = false;
  }
  overflow_pending_ = false;
  // Queue re-association / upgrade resync: the inheriting agent gets a full
  // watchdog timeout before inherited runnable threads count against it.
  watchdog_reset_ = kernel_->now();
}

void Enclave::ResetQueueRouting() {
  for (GhostTask* gt : tasks_by_tid_) {
    CHECK_EQ(gt->pending_msgs, 0) << "ResetQueueRouting requires a flush first";
    gt->queue = default_queue_;
  }
  for (MessageQueue*& queue : cpu_queues_) {
    queue = nullptr;
  }
  default_queue_->set_wakeup_agent(nullptr);
  queues_.erase(std::remove_if(queues_.begin(), queues_.end(),
                               [this](const std::unique_ptr<MessageQueue>& q) {
                                 return q.get() != default_queue_;
                               }),
                queues_.end());
}

bool Enclave::ConsumeOverflowPending() {
  const bool pending = overflow_pending_;
  overflow_pending_ = false;
  return pending;
}

void Enclave::Post(GhostTask* gt, MessageType type, int cpu) {
  if (destroyed_) {
    return;
  }
  Message msg;
  msg.type = type;
  msg.cpu = cpu;
  msg.posted = kernel_->now();
  MessageQueue* queue = default_queue_;
  if (gt != nullptr) {
    msg.tid = gt->task->tid();
    // Tseq advances whether or not the message survives: a dropped message
    // leaves a detectable gap, exactly like the real uAPI's sequence numbers.
    msg.tseq = ++gt->tseq;
    gt->status.tseq = gt->tseq;
    if (type == MessageType::kTaskNew || type == MessageType::kTaskAffinity) {
      msg.affinity = InternMask(gt->task->affinity());
    }
    msg.runnable = gt->status.runnable;
    queue = gt->queue;
  } else if (cpu >= 0 && cpu < static_cast<int>(cpu_queues_.size()) &&
             cpu_queues_[cpu] != nullptr) {
    queue = cpu_queues_[cpu];
  }

  // Recoverable overflow (§3.1/§3.4): a full queue — or injected overflow
  // pressure — drops the message instead of CHECK-crashing. The per-task
  // resync flag and the enclave-wide latch force the agent runtime to
  // resync from TaskDump() + FlushAllQueues(); the kernel dump supersedes
  // the lost message history.
  FaultInjector* injector = kernel_->fault_injector();
  bool dropped = injector != nullptr && injector->OnMessagePost(queue->id(), msg.tid);
  if (!dropped) {
    dropped = !queue->Push(msg);
  }
  if (dropped) {
    queue->NoteOverflow();
    ++messages_dropped_;
    stat_msg_drop_->Inc();
    overflow_pending_ = true;
    if (gt != nullptr) {
      gt->resync = true;
    }
    kernel_->trace().Record(kernel_->now(), TraceEventType::kMsgDrop, cpu,
                            msg.tid, static_cast<int64_t>(type));
  } else {
    if (gt != nullptr) {
      ++gt->pending_msgs;
    }
    ++messages_posted_;
    stat_msg_post_[static_cast<int>(type)]->Inc();
    kernel_->trace().Record(kernel_->now(), TraceEventType::kMessage, cpu,
                            msg.tid, static_cast<int64_t>(type));
  }

  // Aseq bookkeeping + consumer notification. A dropped message still wakes
  // or pokes the consumer: the agent must notice the overflow promptly, not
  // at its next incidental wakeup.
  Task* agent = queue->wakeup_agent();
  if (agent != nullptr) {
    // The Aseq advances even when the message was dropped: the queue's
    // contents no longer reflect the world, so any in-flight commit built on
    // the pre-drop view must fail kEStale rather than act on a stale task
    // set. (The drop itself is surfaced via the overflow/resync flags.)
    ++StatusFor(agent).aseq;
    if (agent->state() == TaskState::kBlocked) {
      // Batched delivery: messages landing on this queue within one dispatch
      // batch (same virtual instant, same wakeup delay) share one wakeup
      // event — the producer-side mirror of the paper's group commit. The
      // armed event fires at the exact time the first message's wakeup would
      // have; the later per-message wakeups it replaces were provably no-ops
      // (the agent is already awake at that instant and, with context-switch
      // costs > 0, cannot have re-blocked within it). Coalescing requires
      // delay > 0: equality of a *future* fire time proves the armed event
      // has not fired yet. At delay == 0 (zero-cost models, e.g. the
      // explorer's adversarial CostModel) the armed event may already have
      // fired — and the agent re-blocked — within this same instant, so
      // every post schedules its own idempotent wakeup, the pre-batching
      // behavior the schedule-space explorer verified.
      const Duration delay = kernel_->cost().msg_produce + kernel_->cost().agent_wakeup;
      const Time fire_at = kernel_->now() + delay;
      if (delay > 0 && queue->armed_wakeup_at() == fire_at) {
        ++queue_wakeups_coalesced_;
      } else {
        queue->set_armed_wakeup_at(fire_at);
        ++queue_wakeups_scheduled_;
        Kernel* kernel = kernel_;
        kernel_->loop()->ScheduleAfter(delay, [kernel, agent] {
          if (agent->state() == TaskState::kBlocked) {
            kernel->Wake(agent);
          }
        }, MakeSchedTag(SchedTagKind::kQueue, queue->id()));
      }
    }
  }
  PokePollWaiters();
}

// ---- Agents --------------------------------------------------------------------

AgentStatusWord& Enclave::StatusFor(Task* agent) {
  if (AgentStatusWord* status = FindStatus(agent)) {
    return *status;
  }
  const auto tid = static_cast<size_t>(agent->tid());
  if (tid >= agent_status_.size()) {
    agent_status_.resize(tid + 1);
  }
  agent_status_[tid] = std::make_unique<AgentStatusWord>();
  return *agent_status_[tid];
}

void Enclave::RegisterAgentTask(int cpu, Task* agent) {
  CHECK(cpus_.IsSet(cpu)) << "CPU " << cpu << " not in enclave";
  CHECK_LT(cpu, static_cast<int>(agents_.size()));
  // Agent handoff: runnable-wait accounting restarts so the watchdog does
  // not charge the new agent for its predecessor's backlog.
  watchdog_reset_ = kernel_->now();
  agents_[cpu] = agent;
  AgentStatusWord& status = StatusFor(agent);
  status.cpu = cpu;
  status.active = true;
  agent_class_->RegisterAgent(cpu, agent);
}

void Enclave::UnregisterAgentTask(int cpu, Task* agent) {
  if (cpu >= 0 && cpu < static_cast<int>(agents_.size()) &&
      agents_[cpu] == agent) {
    agents_[cpu] = nullptr;
    agent_class_->UnregisterAgent(cpu, agent);
    // The departing agent's in-flight transactions die with it (§3.4): its
    // txn region is torn down, so a latch it committed but that has not yet
    // fired must not outlive it. An orphaned latch wedges the CPU — the
    // latched thread fails every later commit with ENOTRUNNABLE while the
    // latch waits for a pick that the replacement agent (a higher sched
    // class) never lets happen. The thread stays runnable in the kernel and
    // reappears in the successor's TaskDump.
    ghost_class_->ClearLatch(cpu);
    ghost_class_->SetForcedIdle(cpu, false);
  }
  UnregisterPollWaiter(agent);
}

void Enclave::RegisterPollWaiter(Task* agent, InlineFunction<void()> poke) {
  poll_waiters_.emplace_back(agent, std::move(poke));
}

void Enclave::UnregisterPollWaiter(Task* agent) {
  poll_waiters_.erase(std::remove_if(poll_waiters_.begin(), poll_waiters_.end(),
                                     [agent](const auto& w) { return w.first == agent; }),
                      poll_waiters_.end());
}

void Enclave::PokePollWaiters() {
  ++poke_epoch_;
  if (poll_waiters_.empty()) {
    return;
  }
  // Single-shot: a poked spinner re-registers when it next runs dry. The
  // scratch vector is a member so the swap dance does not allocate per poke.
  poll_scratch_.clear();
  poll_scratch_.swap(poll_waiters_);
  for (auto& [agent, poke] : poll_scratch_) {
    poke();
  }
}

// ---- Transactions ----------------------------------------------------------------

TxnStatus Enclave::Validate(const Transaction& txn, Task* agent) {
  if (destroyed_) {
    return TxnStatus::kENoAgent;
  }
  if (txn.target_cpu < 0 || !cpus_.IsSet(txn.target_cpu)) {
    return TxnStatus::kEInvalid;
  }
  // Fault injection: an ESTALE storm models messages racing ahead of the
  // commit (§3.2/§3.3) — the agent's retry loop must absorb it.
  FaultInjector* injector = kernel_->fault_injector();
  if (injector != nullptr && injector->OnTxnValidate(txn.target_cpu, txn.tid)) {
    return TxnStatus::kEStale;
  }
  if (agent != nullptr) {
    const AgentStatusWord* status = FindStatus(agent);
    if (status == nullptr) {
      return TxnStatus::kENoAgent;
    }
    if (txn.expected_aseq.has_value() && *txn.expected_aseq != status->aseq) {
      return TxnStatus::kEStale;
    }
  }
  if (ghost_class_->LatchPending(txn.target_cpu)) {
    return TxnStatus::kETxnPending;
  }
  if (txn.idle) {
    return txn.tid == 0 ? TxnStatus::kPending : TxnStatus::kEInvalid;
  }
  GhostTask* gt = Find(txn.tid);
  if (gt == nullptr) {
    return TxnStatus::kEInvalid;
  }
  if (txn.expected_tseq.has_value() && *txn.expected_tseq != gt->tseq) {
    return TxnStatus::kEStale;
  }
  Task* task = gt->task;
  if (!task->affinity().IsSet(txn.target_cpu)) {
    return TxnStatus::kEInvalid;
  }
  if (task->state() != TaskState::kRunnable || gt->latched_cpu >= 0) {
    return TxnStatus::kENotRunnable;
  }
  if (task->inbound_cpu() >= 0 && task->inbound_cpu() != txn.target_cpu) {
    // Still kRunnable, but a context switch is already carrying the thread
    // onto another CPU (e.g. a fast-path pick): committing it here would
    // place it twice.
    return TxnStatus::kENotRunnable;
  }
  // The target CPU must be idle, running a (preemptible) ghOSt thread, or be
  // the committing agent's own CPU (local commit-and-yield).
  const CpuState& cs = kernel_->cpu_state(txn.target_cpu);
  const Task* occupant = cs.switching ? cs.switching_to : cs.current;
  if (occupant != nullptr && occupant != agent &&
      occupant->sched_class() != ghost_class_) {
    return TxnStatus::kECpuBusy;
  }
  return TxnStatus::kPending;  // validation passed
}

void Enclave::Latch(Transaction* txn, Task* agent, Duration delay) {
  GhostClass* ghost_class = ghost_class_;
  Kernel* kernel = kernel_;
  const int cpu = txn->target_cpu;
  const bool local = agent != nullptr && agent->cpu() == cpu;
  const bool cross_numa =
      agent != nullptr && agent->cpu() >= 0 &&
      kernel_->topology().cpu(agent->cpu()).numa != kernel_->topology().cpu(cpu).numa;

  if (txn->idle) {
    if (local) {
      ghost_class->SetForcedIdle(cpu, true);
    } else {
      // The IPI carries the commit generation observed now: if anything
      // rewrites the CPU's commit state before it lands (a newer latch, a
      // teardown), the effect is dropped instead of wedging the CPU.
      const uint64_t gen = ghost_class->commit_gen(cpu);
      kernel_->loop()->ScheduleAfter(delay, [kernel, ghost_class, cpu, cross_numa, gen] {
        kernel->SendIpi(cpu, cross_numa,
                        [ghost_class, cpu, gen] { ghost_class->ForceIdle(cpu, gen); });
      }, MakeSchedTag(SchedTagKind::kCpu, cpu));
    }
    return;
  }

  GhostTask* gt = Find(txn->tid);
  CHECK(gt != nullptr);
  ghost_class->SetForcedIdle(cpu, false);
  if (local) {
    // Takes effect when the agent yields its CPU.
    ghost_class->LatchTask(cpu, gt->task, /*enabled=*/true);
  } else {
    ghost_class->LatchTask(cpu, gt->task, /*enabled=*/false);
    const uint64_t gen = ghost_class->commit_gen(cpu);
    kernel_->loop()->ScheduleAfter(delay, [kernel, ghost_class, cpu, cross_numa, gen] {
      kernel->SendIpi(cpu, cross_numa,
                      [ghost_class, cpu, gen] { ghost_class->EnableLatch(cpu, gen); });
    }, MakeSchedTag(SchedTagKind::kCpu, cpu));
  }
}

void Enclave::LatchDeliver(Transaction* txn, Task* agent, Duration delay) {
  // Deliver phase of a synchronized group commit: the member was already
  // latched (disabled) during the mark phase; this makes it take effect.
  GhostClass* ghost_class = ghost_class_;
  Kernel* kernel = kernel_;
  const int cpu = txn->target_cpu;
  const bool local = agent != nullptr && agent->cpu() == cpu;
  const bool cross_numa =
      agent != nullptr && agent->cpu() >= 0 &&
      kernel_->topology().cpu(agent->cpu()).numa != kernel_->topology().cpu(cpu).numa;

  if (txn->idle) {
    if (local) {
      ghost_class->SetForcedIdle(cpu, true);
    } else {
      const uint64_t gen = ghost_class->commit_gen(cpu);
      kernel_->loop()->ScheduleAfter(delay, [kernel, ghost_class, cpu, cross_numa, gen] {
        kernel->SendIpi(cpu, cross_numa,
                        [ghost_class, cpu, gen] { ghost_class->ForceIdle(cpu, gen); });
      }, MakeSchedTag(SchedTagKind::kCpu, cpu));
    }
    return;
  }

  if (local) {
    // Takes effect when the agent yields its CPU.
    ghost_class->EnableLatchQuiet(cpu);
  } else {
    const uint64_t gen = ghost_class->commit_gen(cpu);
    kernel_->loop()->ScheduleAfter(delay, [kernel, ghost_class, cpu, cross_numa, gen] {
      kernel->SendIpi(cpu, cross_numa,
                      [ghost_class, cpu, gen] { ghost_class->EnableLatch(cpu, gen); });
    }, MakeSchedTag(SchedTagKind::kCpu, cpu));
  }
}

void Enclave::TxnsCommit(std::span<Transaction*> txns, Task* agent,
                         const InlineFunction<Duration(int)>& agent_side_delay) {
  if (!txns.empty()) {
    stat_group_commit_size_->Observe(static_cast<int64_t>(txns.size()));
  }
  // Pass 1: validate everything (latching as we go so that duplicate targets
  // inside one call conflict, as in the real txn table).
  // Synchronized groups need all-or-nothing semantics, so validation for them
  // happens before any latch in the group.
  std::map<int, std::vector<int>> sync_groups;  // group id -> txn indices
  for (int i = 0; i < static_cast<int>(txns.size()); ++i) {
    if (txns[i]->sync_group >= 0) {
      sync_groups[txns[i]->sync_group].push_back(i);
    }
  }

  // Synchronized groups: all-or-nothing (§4.5). Members latch as they
  // validate — so each member is checked against the group's own partial
  // latch state, as in the real txn table — and a member failing
  // (kEInvalid/kECpuBusy/...) mid-latch rolls every already-latched sibling
  // back: siblings report kEAborted and their target CPUs are left
  // untouched. Side effects that escape the commit call (enable-IPIs,
  // forced-idle markers) are deferred to a deliver phase that runs only once
  // the whole group has latched, so a rollback never has to chase an IPI.
  txn_handled_scratch_.assign(txns.size(), false);
  std::vector<bool>& handled = txn_handled_scratch_;
  for (auto& [group, members] : sync_groups) {
    std::vector<TxnStatus> statuses(members.size());
    std::set<int> group_cpus;
    std::set<int64_t> group_tids;
    struct MarkedMember {
      size_t m;
      bool forced_idle_before;  // marker the latch cleared; restored on abort
    };
    std::vector<MarkedMember> marked;
    bool failed = false;
    for (size_t m = 0; m < members.size(); ++m) {
      const Transaction& txn = *txns[members[m]];
      statuses[m] = Validate(txn, agent);
      // Duplicate CPUs / threads within the group: once the group has
      // failed nothing more is marked, so later duplicates of unmarked
      // members must be rejected explicitly rather than via latch state.
      if (statuses[m] == TxnStatus::kPending) {
        if (!group_cpus.insert(txn.target_cpu).second) {
          statuses[m] = TxnStatus::kETxnPending;
        } else if (!txn.idle && !group_tids.insert(txn.tid).second) {
          statuses[m] = TxnStatus::kENotRunnable;
        }
      }
      if (statuses[m] != TxnStatus::kPending) {
        failed = true;
        continue;
      }
      if (failed) {
        continue;  // group already doomed; keep validating for status only
      }
      const bool idle_before = ghost_class_->forced_idle(txn.target_cpu);
      if (!txn.idle) {
        GhostTask* gt = Find(txn.tid);
        CHECK(gt != nullptr);
        ghost_class_->LatchTask(txn.target_cpu, gt->task, /*enabled=*/false);
      }
      marked.push_back(MarkedMember{m, idle_before});
    }

    if (!failed || test_partial_sync_groups_) {
      for (const MarkedMember& mk : marked) {
        const int i = members[mk.m];
        statuses[mk.m] = TxnStatus::kCommitted;
        LatchDeliver(txns[i], agent, agent_side_delay(i));
      }
    } else {
      // Roll back, newest first.
      for (auto it = marked.rbegin(); it != marked.rend(); ++it) {
        const Transaction& txn = *txns[members[it->m]];
        if (!txn.idle) {
          ghost_class_->ClearLatch(txn.target_cpu);
          if (it->forced_idle_before) {
            ghost_class_->SetForcedIdle(txn.target_cpu, true);
          }
        }
      }
    }

    for (size_t m = 0; m < members.size(); ++m) {
      const int i = members[m];
      handled[i] = true;
      TxnStatus status = statuses[m];
      if (status == TxnStatus::kPending) {
        status = TxnStatus::kEAborted;  // validated fine, but a sibling failed
      }
      txns[i]->status = status;
      if (status == TxnStatus::kCommitted) {
        ++txns_committed_;
      } else {
        ++txns_failed_;
      }
      stat_txn_status_[static_cast<int>(status)]->Inc();
    }
  }

  for (int i = 0; i < static_cast<int>(txns.size()); ++i) {
    if (handled[i]) {
      continue;
    }
    const TxnStatus status = Validate(*txns[i], agent);
    if (status != TxnStatus::kPending) {
      txns[i]->status = status;
      ++txns_failed_;
      stat_txn_status_[static_cast<int>(status)]->Inc();
      kernel_->trace().Record(kernel_->now(), TraceEventType::kTxnFail,
                              txns[i]->target_cpu, txns[i]->tid,
                              static_cast<int64_t>(status));
      continue;
    }
    txns[i]->status = TxnStatus::kCommitted;
    Latch(txns[i], agent, agent_side_delay(i));
    ++txns_committed_;
    stat_txn_status_[static_cast<int>(TxnStatus::kCommitted)]->Inc();
    kernel_->trace().Record(kernel_->now(), TraceEventType::kTxnCommit,
                            txns[i]->target_cpu, txns[i]->tid);
  }
}

// ---- Introspection -------------------------------------------------------------------

size_t Enclave::QueuedMessages() const {
  size_t total = 0;
  for (const auto& queue : queues_) {
    total += queue->size();
  }
  return total;
}

int Enclave::PendingTaskMessages() const {
  int total = 0;
  for (const GhostTask* gt : tasks_by_tid_) {
    total += gt->pending_msgs;
  }
  return total;
}

// ---- Hooks from the scheduling class ------------------------------------------------

void Enclave::OnTaskNew(Task* task, bool runnable) {
  GhostTask* gt = StateOf(task);
  CHECK(gt != nullptr);
  Post(gt, MessageType::kTaskNew, task->cpu());
}

void Enclave::OnTaskWakeup(Task* task) {
  Post(StateOf(task), MessageType::kTaskWakeup, -1);
}

void Enclave::OnTaskPutPrev(Task* task, int cpu, PutPrevReason reason) {
  GhostTask* gt = StateOf(task);
  CHECK(gt != nullptr);
  switch (reason) {
    case PutPrevReason::kBlocked:
      Post(gt, MessageType::kTaskBlocked, cpu);
      break;
    case PutPrevReason::kPreempted:
      Post(gt, MessageType::kTaskPreempted, cpu);
      break;
    case PutPrevReason::kYielded:
      Post(gt, MessageType::kTaskYield, cpu);
      break;
    case PutPrevReason::kExited:
      Post(gt, MessageType::kTaskDead, cpu);
      task->set_ghost_state(nullptr);
      EraseTask(gt);
      break;
  }
}

void Enclave::OnTaskAffinity(Task* task) {
  Post(StateOf(task), MessageType::kTaskAffinity, -1);
}

void Enclave::OnTaskDeparted(Task* task) {
  GhostTask* gt = StateOf(task);
  CHECK(gt != nullptr);
  Post(gt, MessageType::kTaskDeparted, -1);
  task->set_ghost_state(nullptr);
  EraseTask(gt);
}

void Enclave::OnTaskStarted(Task* task, int cpu) {
  stat_sched_latency_ns_->Observe(kernel_->now() - task->runnable_since());
}

void Enclave::OnTimerTick(int cpu) { Post(nullptr, MessageType::kTimerTick, cpu); }

void Enclave::SetTickless(bool tickless) {
  tickless_ = tickless;
  for (int cpu = cpus_.First(); cpu >= 0; cpu = cpus_.NextAfter(cpu)) {
    kernel_->SetTickEnabled(cpu, !tickless);
  }
}

void Enclave::SetHint(int64_t tid, uint64_t hint) {
  GhostTask* gt = Find(tid);
  if (gt != nullptr) {
    gt->hint = hint;
  }
}

uint64_t Enclave::Hint(int64_t tid) {
  GhostTask* gt = Find(tid);
  return gt != nullptr ? gt->hint : 0;
}

void Enclave::OnCpuIdleTransition(int cpu, bool idle) {
  if (destroyed_ || !idle || !cpus_.IsSet(cpu)) {
    return;
  }
  PokePollWaiters();
}

}  // namespace gs
