// Enclave: the unit of ghOSt policy isolation (§3, Fig 2).
//
// An enclave owns a set of CPUs and runs one scheduling policy via its agent
// process. It provides the full kernel<->agent contract of the paper:
//
//  * message queues with CREATE/DESTROY/ASSOCIATE_QUEUE and
//    CONFIG_QUEUE_WAKEUP semantics (including the "must drain before
//    re-associating" failure, §3.1),
//  * per-thread Tseq and per-agent Aseq sequence numbers exposed through
//    status words,
//  * the transaction commit engine with group commits, batch IPIs, ESTALE
//    validation and synchronized (all-or-nothing) groups (§3.2, §4.5),
//  * the watchdog that destroys an enclave whose agent stops scheduling
//    runnable threads, falling every thread back to CFS (§3.4),
//  * task-state dumps for in-place agent upgrades (§3.4),
//  * the BPF-analog fast path hook (§3.2/§5).
#ifndef GHOST_SIM_SRC_GHOST_ENCLAVE_H_
#define GHOST_SIM_SRC_GHOST_ENCLAVE_H_

#include <functional>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "src/base/cpumask.h"
#include "src/base/inline_callback.h"
#include "src/base/slab.h"
#include "src/ghost/fastpath.h"
#include "src/ghost/ghost_task.h"
#include "src/ghost/message_queue.h"
#include "src/ghost/transaction.h"
#include "src/kernel/kernel.h"

namespace gs {

class AgentClass;
class GhostClass;

class Enclave {
 public:
  struct Config {
    // If a runnable ghOSt thread goes unscheduled for this long, the
    // watchdog destroys the enclave (0 disables the watchdog).
    Duration watchdog_timeout = 0;
    Duration watchdog_period = Milliseconds(10);
    size_t default_queue_capacity = kDefaultQueueCapacity;
  };

  Enclave(Kernel* kernel, GhostClass* ghost_class, AgentClass* agent_class, CpuMask cpus,
          Config config);
  Enclave(Kernel* kernel, GhostClass* ghost_class, AgentClass* agent_class, CpuMask cpus)
      : Enclave(kernel, ghost_class, agent_class, cpus, Config()) {}
  ~Enclave();

  Enclave(const Enclave&) = delete;
  Enclave& operator=(const Enclave&) = delete;

  Kernel* kernel() { return kernel_; }
  GhostClass* ghost_class() { return ghost_class_; }
  const CpuMask& cpus() const { return cpus_; }
  const Config& config() const { return config_; }
  bool destroyed() const { return destroyed_; }

  // Destroys the enclave: every managed thread moves back to the default
  // scheduler (CFS) and all attached agents are killed (§3.4).
  void Destroy();
  void SetDestroyListener(std::function<void()> listener) {
    destroy_listener_ = std::move(listener);
  }

  // ---- Threads --------------------------------------------------------------
  // Moves a native thread into this enclave (it becomes ghOSt-scheduled and a
  // THREAD_CREATED message is posted).
  void AddTask(Task* task);
  // Moves a thread back to CFS (posts a departed message).
  void RemoveTask(Task* task);

  // The thread's ghOSt state if this enclave manages it, else nullptr (no
  // such tid, departed, dead, or managed by another enclave).
  GhostTask* Find(int64_t tid) {
    const Task* task = kernel_->TaskByTid(tid);
    if (task == nullptr) {
      return nullptr;
    }
    auto* gt = static_cast<GhostTask*>(task->ghost_state());
    return gt != nullptr && gt->enclave == this ? gt : nullptr;
  }
  const TaskStatusWord* task_status(int64_t tid);
  int num_tasks() const { return static_cast<int>(tasks_by_tid_.size()); }
  // Every managed thread, in ascending tid order.
  const std::vector<GhostTask*>& tasks() const { return tasks_by_tid_; }

  // Snapshot of all thread state, used by a replacement agent to resume
  // scheduling after an in-place upgrade (§3.4).
  struct TaskInfo {
    int64_t tid = 0;
    bool runnable = false;
    bool on_cpu = false;
    int cpu = -1;
    uint32_t tseq = 0;
    CpuMask affinity;
  };
  std::vector<TaskInfo> TaskDump() const;

  // ---- Queues (CREATE/DESTROY/ASSOCIATE_QUEUE, CONFIG_QUEUE_WAKEUP) ----------
  MessageQueue* CreateQueue(size_t capacity = kDefaultQueueCapacity);
  void DestroyQueue(MessageQueue* queue);
  MessageQueue* default_queue() { return default_queue_; }
  // Fails (returns false) if messages for the thread are pending in its
  // current queue — the agent must drain first and retry (§3.1).
  bool AssociateQueue(int64_t tid, MessageQueue* queue);
  void ConfigQueueWakeup(MessageQueue* queue, Task* agent);
  // Routes CPU messages (TIMER_TICK) for `cpu` to `queue`.
  void SetCpuQueue(int cpu, MessageQueue* queue);

  // Consumer side: pops one message, maintaining per-task pending counts and
  // the Aseq bookkeeping. (AgentContext charges the dequeue cost.)
  std::optional<Message> PopMessage(MessageQueue* queue);

  // The enclave's one immutable copy of `mask`, made on first use and kept
  // for the enclave's lifetime. Messages carry affinities as these pointers.
  const CpuMask* InternMask(const CpuMask& mask) { return &*masks_.insert(mask).first; }

  // Discards every undrained message in every queue. Used at agent takeover
  // (§3.4): the kernel's TaskDump() supersedes pre-crash message history, so
  // a replacement agent starts from a clean slate and can re-associate
  // queues freely. Also clears all overflow/resync state: after a flush the
  // dump is the authoritative view.
  void FlushAllQueues();

  // Returns message routing to the initial state: every thread re-associates
  // with the default queue, CPU-message routing and the default queue's
  // wakeup target reset, and every policy-created queue is destroyed. Used by
  // the live policy swap (§3.4 hot upgrade): the outgoing policy's queues
  // must not keep receiving messages nobody will ever drain. Call after
  // FlushAllQueues() — queues must be empty (CHECKed).
  void ResetQueueRouting();

  // ---- Overflow (recoverable, §3.1/§3.4) -------------------------------------
  // A full (or fault-injected) queue drops the message instead of crashing
  // the kernel: the per-task resync flag and the enclave-wide overflow latch
  // are raised, and the consumer is still woken/poked so it notices. The
  // agent runtime reacts by resyncing from TaskDump() + FlushAllQueues().
  // True if any message has been dropped since the last flush/consume.
  bool overflow_pending() const { return overflow_pending_; }
  // Returns the latch and clears it (the caller owns the resync).
  bool ConsumeOverflowPending();
  uint64_t messages_dropped() const { return messages_dropped_; }

  // ---- Introspection (invariant checking) ------------------------------------
  // Total undrained messages across all queues, and the sum of per-task
  // pending counts (the latter excludes CPU messages, so pending <= queued).
  size_t QueuedMessages() const;
  int PendingTaskMessages() const;

  // ---- Agents ------------------------------------------------------------------
  // Registers `agent` as the agent thread for `cpu` (pins it, top priority).
  void RegisterAgentTask(int cpu, Task* agent);
  void UnregisterAgentTask(int cpu, Task* agent);
  Task* AgentOnCpu(int cpu) const {
    return cpu >= 0 && cpu < static_cast<int>(agents_.size()) ? agents_[cpu]
                                                              : nullptr;
  }
  AgentStatusWord& agent_status(Task* agent) { return StatusFor(agent); }
  // Userspace notification for a *running* sibling agent: bumps its aseq so
  // the check-then-sleep protocol in the agent runtime sees that work was
  // queued for it mid-iteration and re-runs instead of blocking. (A blocked
  // sibling is woken directly; this covers the other half of that race.)
  void PokeAgent(Task* agent) { ++StatusFor(agent).aseq; }

  // A spinning agent with nothing to do registers a single-shot poke,
  // modelling "the global agent notices new state within its poll
  // granularity". Fired on message posts and enclave-CPU idle transitions.
  void RegisterPollWaiter(Task* agent, InlineFunction<void()> poke);
  void UnregisterPollWaiter(Task* agent);
  // Monotonic counter of poke-worthy events (message posts, idle
  // transitions). A spinner that saw epoch E at iteration start must re-run
  // instead of poll-waiting if the epoch moved during its burst.
  uint64_t poke_epoch() const { return poke_epoch_; }

  // ---- Transactions ----------------------------------------------------------------
  // Validates and latches a group of transactions committed by `agent`.
  // `agent_side_delay(i)` is the virtual-time offset (from now) at which the
  // i-th transaction's effect leaves the agent (AgentContext computes this
  // from its cost ledger). Local commits (target == agent's CPU) latch
  // immediately and take effect when the agent yields.
  void TxnsCommit(std::span<Transaction*> txns, Task* agent,
                  const InlineFunction<Duration(int)>& agent_side_delay);

  // ---- Fast path --------------------------------------------------------------------
  void InstallFastPath(std::shared_ptr<RingFastPath> fastpath) {
    fastpath_ = std::move(fastpath);
  }
  RingFastPath* fastpath() { return fastpath_.get(); }

  // ---- Tick-less mode (§5) -------------------------------------------------------------
  // With a spinning global agent the per-CPU timer ticks are redundant;
  // disabling them removes VM-exit jitter for guest workloads. Restored on
  // enclave destruction.
  void SetTickless(bool tickless);
  bool tickless() const { return tickless_; }

  // ---- Scheduling hints (§4.3) -----------------------------------------------------------
  // A shared-memory word per thread that applications write and policies
  // read (e.g. expected burst length, deadline class).
  void SetHint(int64_t tid, uint64_t hint);
  uint64_t Hint(int64_t tid);

  // ---- Hooks from GhostClass (kernel context) ------------------------------------------
  // Each is called for a thread this enclave manages.
  void OnTaskNew(Task* task, bool runnable);
  void OnTaskWakeup(Task* task);
  void OnTaskPutPrev(Task* task, int cpu, PutPrevReason reason);
  void OnTaskAffinity(Task* task);
  void OnTaskDeparted(Task* task);
  void OnTaskStarted(Task* task, int cpu);
  void OnTimerTick(int cpu);
  void OnCpuIdleTransition(int cpu, bool idle);

  // Statistics.
  uint64_t messages_posted() const { return messages_posted_; }
  uint64_t txns_committed() const { return txns_committed_; }
  uint64_t txns_failed() const { return txns_failed_; }
  // Batched-delivery introspection: wakeup events actually armed vs. posts
  // that rode an already-armed event (same queue, same fire instant).
  uint64_t queue_wakeups_scheduled() const { return queue_wakeups_scheduled_; }
  uint64_t queue_wakeups_coalesced() const { return queue_wakeups_coalesced_; }

  // Test seam (schedule-space explorer mutation battery): on a synchronized
  // group failure, members latched before the failing one are delivered
  // anyway instead of rolled back — the partial-latch bug the all-or-nothing
  // protocol exists to prevent. Never set outside tests.
  void set_test_partial_sync_groups(bool partial) {
    test_partial_sync_groups_ = partial;
  }

 private:
  // Posts a message about `gt` (or a CPU message when gt == nullptr) to the
  // right queue; bumps Tseq/Aseq; wakes or pokes the consumer.
  void Post(GhostTask* gt, MessageType type, int cpu);
  TxnStatus Validate(const Transaction& txn, Task* agent);
  void Latch(Transaction* txn, Task* agent, Duration delay);
  // Deliver phase of a synchronized group commit: enables / announces a
  // latch placed (disabled) during the group's mark phase.
  void LatchDeliver(Transaction* txn, Task* agent, Duration delay);
  void ScheduleWatchdog();
  void WatchdogScan();
  void PokePollWaiters();
  // The ghOSt state of a thread the caller knows this enclave manages (the
  // hooks); a tid from a message or transaction goes through Find().
  static GhostTask* StateOf(Task* task) {
    return static_cast<GhostTask*>(task->ghost_state());
  }
  // Removes `gt` from the sorted view, then recycles it.
  void EraseTask(GhostTask* gt);
  // Find-or-create the agent's status word (hot: every post and poke).
  AgentStatusWord& StatusFor(Task* agent);
  AgentStatusWord* FindStatus(Task* agent) {
    const auto tid = static_cast<size_t>(agent->tid());
    return tid < agent_status_.size() ? agent_status_[tid].get() : nullptr;
  }

  Kernel* kernel_;
  GhostClass* ghost_class_;
  AgentClass* agent_class_;
  CpuMask cpus_;
  Config config_;
  bool destroyed_ = false;
  std::function<void()> destroy_listener_;

  // Managed threads: slab-allocated GhostTask records (O(1) pooled churn),
  // reached from their Task (Find), and a tid-sorted view for the iteration
  // sites that must stay deterministic (watchdog scan, TaskDump, destroy).
  Slab<GhostTask> task_slab_;
  std::vector<GhostTask*> tasks_by_tid_;
  uint64_t next_task_gen_ = 1;

  std::vector<std::unique_ptr<MessageQueue>> queues_;
  MessageQueue* default_queue_ = nullptr;
  int next_queue_id_ = 1;
  std::vector<MessageQueue*> cpu_queues_;  // TIMER_TICK routing, by CPU

  std::vector<Task*> agents_;  // agent task by CPU (nullptr = none)
  // Agent status words by agent tid (nullptr = none yet).
  std::vector<std::unique_ptr<AgentStatusWord>> agent_status_;
  // Interned affinity masks (InternMask); set nodes never move.
  std::set<CpuMask> masks_;
  std::vector<std::pair<Task*, InlineFunction<void()>>> poll_waiters_;
  // Swap target for PokePollWaiters: keeps both vectors' capacity across
  // iterations instead of reallocating per poke round.
  std::vector<std::pair<Task*, InlineFunction<void()>>> poll_scratch_;
  uint64_t poke_epoch_ = 0;

  std::shared_ptr<RingFastPath> fastpath_;
  bool tickless_ = false;
  EventId watchdog_event_ = kInvalidEventId;
  // Most recent agent handoff (registration or queue flush): the watchdog
  // measures runnable waits from max(runnable_since, watchdog_reset_) so a
  // replacement agent is not blamed for its predecessor's backlog.
  Time watchdog_reset_ = 0;
  int idle_listener_handle_ = -1;
  bool test_partial_sync_groups_ = false;

  uint64_t messages_posted_ = 0;
  uint64_t messages_dropped_ = 0;
  bool overflow_pending_ = false;
  uint64_t txns_committed_ = 0;
  uint64_t txns_failed_ = 0;
  uint64_t queue_wakeups_scheduled_ = 0;
  uint64_t queue_wakeups_coalesced_ = 0;
  // Per-commit scratch (TxnsCommit is once per agent iteration).
  std::vector<bool> txn_handled_scratch_;

  // Hot-path metrics (global registry; pointers cached at construction).
  // Indexed by MessageType / TxnStatus enum value.
  std::vector<Counter*> stat_msg_post_;
  std::vector<Counter*> stat_txn_status_;
  Counter* stat_msg_drop_;
  Counter* stat_msg_deliver_;
  HistogramMetric* stat_group_commit_size_;
  HistogramMetric* stat_sched_latency_ns_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_GHOST_ENCLAVE_H_
