// Centralized FIFO policy: one spinning global agent schedules every CPU in
// the enclave (Fig 4 of the paper).
//
// This single policy, parameterized, covers three of the paper's five
// evaluation policies:
//
//  * Fig 5's round-robin scalability policy ("manages all threads in a FIFO
//    runqueue, scheduling them on CPUs as soon as CPUs become idle", grouping
//    as many transactions as possible per commit);
//  * the Shinjuku policy (§4.2): 30 µs preemption timeslice, requests
//    rotate to the back of the FIFO;
//  * the Shinjuku+Shenango and Snap policies (§4.2/§4.3): a second, batch
//    tier that only gets CPUs when the latency-critical tier leaves them
//    idle, and that latency-critical wakeups preempt immediately.
#ifndef GHOST_SIM_SRC_POLICIES_CENTRALIZED_FIFO_H_
#define GHOST_SIM_SRC_POLICIES_CENTRALIZED_FIFO_H_

#include <functional>
#include <vector>

#include "src/agent/sdk/sdk.h"

namespace gs {

class CentralizedFifoPolicy : public GlobalAgentPolicy {
 public:
  struct Options {
    // CPU hosting the global agent. -1 = first enclave CPU.
    int global_cpu = -1;
    // 0 disables preemption (run to completion, like CFS-Shinjuku).
    Duration preemption_timeslice = 0;
    // Maps tid -> tier (0 latency-critical, 1 batch). Default: everything 0.
    std::function<int(int64_t)> tier_of;
    // Install the BPF-analog fast path (§3.2/§5): overflow runnable threads
    // are published to a shared ring that idle CPUs pop from pick_next_task.
    bool use_fastpath = false;
    // Extra policy cost per scheduling pass (models heavyweight scheduling
    // loops; the §5 discussion's 30 us loop). Used by the fast-path ablation.
    Duration extra_loop_cost = 0;
    // Cap on transactions per TXNS_COMMIT (group-commit ablation).
    int max_group_commit = INT32_MAX;
  };

  CentralizedFifoPolicy() : CentralizedFifoPolicy(Options()) {}
  explicit CentralizedFifoPolicy(Options options);

  const char* name() const override { return "centralized-fifo"; }
  const Options& options() const { return options_; }
  void Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) override;
  void Restore(const std::vector<Enclave::TaskInfo>& dump) override;

  // Statistics.
  uint64_t preemptions() const { return preemptions_; }
  size_t queue_depth() const { return fifo_[0].size() + fifo_[1].size(); }
  int RunqueueDepth() const override { return static_cast<int>(queue_depth()); }

 protected:
  AgentAction Schedule(AgentContext& ctx) override;
  void TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskPreempted(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskYield(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskDeparted(AgentContext& ctx, PolicyTask* task, const Message& msg) override;

 private:
  struct Running {
    PolicyTask* task = nullptr;
    Time since = 0;
  };

  // A task became runnable: woke (`cpu` = -1), or was preempted or yielded
  // off `cpu`. Forgets it on `cpu` and queues it at the back of its FIFO.
  void Requeue(int cpu, PolicyTask* task);
  void Enqueue(PolicyTask* task, bool front);
  void DequeueFromRunqueue(PolicyTask* task);
  PolicyTask* PopNext();       // high tier first
  PolicyTask* PopTier(int tier);
  // Forgets the policy's belief that `task` runs on `cpu`.
  void ClearRunning(int cpu, PolicyTask* task);

  Options options_;

  FifoRunqueue fifo_[2];
  // Dense cpu -> policy belief (task == nullptr means idle). The agent scans
  // this every loop iteration; ascending-index scans match the old std::map's
  // ascending-cpu order, so decisions are unchanged.
  std::vector<Running> running_;

  uint64_t preemptions_ = 0;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_POLICIES_CENTRALIZED_FIFO_H_
