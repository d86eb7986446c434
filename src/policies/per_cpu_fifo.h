// Per-CPU FIFO policy: the paper's Fig 3 pattern.
//
// Each CPU's local agent owns a message queue and a FIFO runqueue. New
// threads (announced on the default queue, drained by the agent of the first
// enclave CPU) are assigned round-robin to per-CPU queues via
// ASSOCIATE_QUEUE. An agent iteration drains its queue, dequeues the next
// thread, commits a local transaction tagged with its Aseq, and yields; an
// ESTALE failure sends it back around the loop, exactly as in Fig 3.
//
// Reference consumer of the per-CPU shape: PerCpuAgentPolicy owns the
// homing, the notifications and the commit loop; this file keeps only the
// FIFO runqueue, its round-robin rotation on timer ticks, and the Steal()
// hook WorkStealingPolicy fills in.
#ifndef GHOST_SIM_SRC_POLICIES_PER_CPU_FIFO_H_
#define GHOST_SIM_SRC_POLICIES_PER_CPU_FIFO_H_

#include <vector>

#include "src/agent/sdk/per_cpu_agent.h"
#include "src/agent/sdk/runqueue.h"

namespace gs {

class PerCpuFifoPolicy : public PerCpuAgentPolicy {
 public:
  const char* name() const override { return "per-cpu-fifo"; }
  void Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) override;

  int RunqueueDepth() const override {
    int total = 0;
    for (const CpuSched& sched : cpus_) {
      total += static_cast<int>(sched.runqueue.size());
    }
    return total;
  }

 protected:
  struct CpuSched {
    FifoRunqueue runqueue;
    bool rotate = false;  // a TIMER_TICK for this CPU landed
  };

  // Refills an agent whose own runqueue is empty; the returned task is
  // committed on `cpu` as if popped from its runqueue. Default: nothing.
  virtual PolicyTask* Steal(AgentContext& ctx, int cpu) { return nullptr; }

  void Push(PolicyTask* task, int cpu, QueueAt at) override;
  void Remove(PolicyTask* task, int cpu) override { cpus_[cpu].runqueue.Remove(task); }
  PolicyTask* Pick(AgentContext& ctx, int cpu) override;
  void ResetRunqueues() override;
  void TimerTick(AgentContext& ctx, const Message& msg) override;

  // Dense cpu -> runqueue (empty for CPUs outside the enclave).
  std::vector<CpuSched> cpus_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_POLICIES_PER_CPU_FIFO_H_
