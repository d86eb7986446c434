// Per-CPU FIFO policy: the paper's Fig 3 pattern.
//
// Each CPU's local agent owns a message queue and a FIFO runqueue. New
// threads (announced on the default queue, drained by the agent of the first
// enclave CPU) are assigned round-robin to per-CPU queues via
// ASSOCIATE_QUEUE. An agent iteration drains its queue, dequeues the next
// thread, commits a local transaction tagged with its Aseq, and yields; an
// ESTALE failure sends it back around the loop, exactly as in Fig 3.
//
// Reference consumer of the Policy hooks: message boilerplate (queue
// draining, TaskTable upkeep, per-type routing) lives in the base class;
// this file keeps only the FIFO decisions — which runqueue a task lands in
// per message type, and what Schedule() commits.
#ifndef GHOST_SIM_SRC_POLICIES_PER_CPU_FIFO_H_
#define GHOST_SIM_SRC_POLICIES_PER_CPU_FIFO_H_

#include <vector>

#include "src/agent/agent_process.h"
#include "src/agent/policy.h"
#include "src/agent/sdk/runqueue.h"
#include "src/base/flat_map.h"

namespace gs {

class PerCpuFifoPolicy : public Policy {
 public:
  const char* name() const override { return "per-cpu-fifo"; }
  void Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) override;
  void Restore(const std::vector<Enclave::TaskInfo>& dump) override;

  uint64_t scheduled() const { return scheduled_; }
  uint64_t estale_failures() const { return estale_failures_; }
  int RunqueueDepth() const override {
    int total = 0;
    for (const CpuSched& sched : cpus_) {
      total += static_cast<int>(sched.runqueue.size());
    }
    return total;
  }

 protected:
  struct CpuSched {
    MessageQueue* queue = nullptr;
    FifoRunqueue runqueue;
    bool rotate = false;  // a TIMER_TICK for this CPU landed
  };

  // Refills an agent whose own runqueue is empty; the returned task is
  // committed on `cpu` as if popped from its runqueue. Default: nothing.
  virtual PolicyTask* Steal(AgentContext& ctx, int cpu) { return nullptr; }

  // Policy hooks.
  void CollectQueues(AgentContext& ctx, std::vector<MessageQueue*>* queues) override;
  AgentAction Schedule(AgentContext& ctx) override;
  void TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskPreempted(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskYield(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskDeparted(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskAffinity(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TimerTick(AgentContext& ctx, const Message& msg) override;

  Enclave* enclave_ = nullptr;
  // Dense cpu -> scheduling state (queue == nullptr for CPUs outside the
  // enclave); indexed on every message and every Schedule() call.
  std::vector<CpuSched> cpus_;
  TidMap<int> home_cpu_;  // tid -> owning CPU

 private:
  // Queues a freshly runnable task on its home CPU (front = resume-after-
  // preemption semantics) and notifies that CPU's agent.
  void EnqueueRunnable(AgentContext& ctx, PolicyTask* task, bool front);
  // Drops a task's runqueue link and home mapping (dead/departed).
  void Evict(AgentContext& ctx, PolicyTask* task);
  // Wakes the (blocked) agent of `cpu` so it notices freshly queued work.
  void NotifyAgent(AgentContext& ctx, int cpu);
  // Round-robin target for newly arrived threads.
  int NextHomeCpu();
  int HomeOf(int64_t tid, int fallback) {
    const int* home = home_cpu_.Find(tid);
    return home == nullptr ? fallback : *home;
  }

  AgentProcess* process_ = nullptr;
  std::vector<int> cpu_list_;
  size_t rr_next_ = 0;
  int boss_cpu_ = -1;  // drains the default queue (new-thread announcements)

  uint64_t scheduled_ = 0;
  uint64_t estale_failures_ = 0;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_POLICIES_PER_CPU_FIFO_H_
