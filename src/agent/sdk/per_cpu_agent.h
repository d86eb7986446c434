// PerCpuAgentPolicy: the per-CPU shape (Fig 3, §3.1) shared by every policy
// in which each CPU's agent schedules only its own CPU.
//
//  * Every enclave CPU gets a message queue that wakes that CPU's agent. The
//    agent on the first enclave CPU (the boss) also drains the default
//    queue, where new threads are announced, and homes each one round-robin
//    on a CPU with ASSOCIATE_QUEUE (on the first allowed CPU instead when
//    the thread's affinity excludes the round-robin pick).
//  * A runnable thread waits in its home CPU's runqueue. Queueing work for
//    another CPU wakes (or pokes) that CPU's agent. An affinity change that
//    excludes the home CPU re-homes the thread on the first allowed one.
//  * Schedule() is Fig 3's loop: read the agent's aseq, pick from the own
//    runqueue, commit locally tagged with the aseq, and yield so the latched
//    commit takes effect. ESTALE puts the thread back at the head and runs
//    again (drain the newer messages, retry). ETXNPENDING means this CPU
//    still holds an earlier latched commit: the thread goes back to the head
//    and the agent yields so that commit runs. After any other failure a
//    thread that may no longer run here is re-homed.
//
// Subclasses supply the runqueue (Push/Remove/Pick/ResetRunqueues) and any
// per-task state (TrackTask/UntrackTask/Committed). To choose where a
// message puts a thread they override its hook and call Enqueue().
#ifndef GHOST_SIM_SRC_AGENT_SDK_PER_CPU_AGENT_H_
#define GHOST_SIM_SRC_AGENT_SDK_PER_CPU_AGENT_H_

#include <cstdint>
#include <vector>

#include "src/agent/policy.h"

namespace gs {

class PerCpuAgentPolicy : public Policy {
 public:
  // Subclasses that override this call it first.
  void Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) override;
  // Full-view replacement (also the overflow-resync path): empties the
  // runqueues, rebuilds the table from the dump, homes every thread as
  // TaskNew does and queues the runnable ones that are not on a CPU.
  void Restore(const std::vector<Enclave::TaskInfo>& dump) final;

  // Local commits that took / failed ESTALE.
  uint64_t scheduled() const { return scheduled_; }
  uint64_t estale_failures() const { return estale_failures_; }

 protected:
  // Where a thread goes in its home CPU's runqueue.
  enum class QueueAt {
    kBack,       // behind every queued thread
    kFront,      // at the head: resume after an interruption
    kNextRound,  // after the current round (O1's expired array; a FIFO's back)
  };

  // ---- Subclass obligations: the runqueue ----------------------------------
  virtual void Push(PolicyTask* task, int cpu, QueueAt at) = 0;
  virtual void Remove(PolicyTask* task, int cpu) = 0;
  // Removes and returns the next thread for `cpu`'s agent to commit; nullptr
  // when there is none.
  virtual PolicyTask* Pick(AgentContext& ctx, int cpu) = 0;
  // Drops every queued thread and all per-task state (Restore()).
  virtual void ResetRunqueues() = 0;

  // ---- Optional per-task state (default: none) -----------------------------
  // A thread joined the view (TaskNew, Restore), before it is first queued.
  virtual void TrackTask(PolicyTask* task) {}
  // A thread left (dead/departed), after its runqueue link was dropped.
  virtual void UntrackTask(PolicyTask* task) {}
  // A local commit of `task` took.
  virtual void Committed(AgentContext& ctx, PolicyTask* task) {}

  // Queues a runnable thread on its home CPU at `at` (no-op if it is already
  // queued) and notifies that CPU's agent.
  void Enqueue(AgentContext& ctx, PolicyTask* task, QueueAt at);
  Enclave* enclave() const { return enclave_; }
  MessageQueue* queue_of(int cpu) const { return queues_[cpu]; }
  // The enclave's CPUs, ascending.
  const std::vector<int>& cpu_list() const { return cpu_list_; }

  // Policy hooks. The queueing hooks put a woken or yielding thread at the
  // back and a preempted one at the front.
  void CollectQueues(AgentContext& ctx, std::vector<MessageQueue*>* queues) final;
  AgentAction Schedule(AgentContext& ctx) final;
  void TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskPreempted(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskYield(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskDeparted(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskAffinity(AgentContext& ctx, PolicyTask* task, const Message& msg) final;

 private:
  // Drops a thread's runqueue link, if it has one.
  void Dequeue(AgentContext& ctx, PolicyTask* task);
  // Drops a thread's runqueue link, home and per-task state (dead/departed).
  void Evict(AgentContext& ctx, PolicyTask* task);
  // Wakes the (blocked) agent of `cpu` so it notices freshly queued work.
  void NotifyAgent(AgentContext& ctx, int cpu);
  // Home for a newly arrived thread: the next CPU round-robin, or the first
  // CPU the thread may run on when its affinity excludes that one.
  int NextHomeCpu(const PolicyTask* task);
  // The first enclave CPU `task` may run on, or `fallback` if none.
  int FirstAllowedCpu(const PolicyTask* task, int fallback) const;
  static int HomeOf(const PolicyTask* task, int fallback) {
    return task->home_cpu >= 0 ? task->home_cpu : fallback;
  }

  AgentProcess* process_ = nullptr;
  Enclave* enclave_ = nullptr;
  // Dense cpu -> message queue (nullptr for CPUs outside the enclave).
  std::vector<MessageQueue*> queues_;
  std::vector<int> cpu_list_;
  size_t rr_next_ = 0;
  int boss_cpu_ = -1;  // drains the default queue (new-thread announcements)

  uint64_t scheduled_ = 0;
  uint64_t estale_failures_ = 0;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_AGENT_SDK_PER_CPU_AGENT_H_
