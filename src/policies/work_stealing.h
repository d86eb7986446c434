// Work-stealing per-CPU policy: the §3.1 load-balancing pattern.
//
// From the paper: "to enable load-balancing and work-stealing between CPUs,
// agents can change the routing of messages from threads to queues via
// ASSOCIATE_QUEUE(). It is up to the agent implementation (in userspace) to
// properly coordinate the message routing across queues to agents. If a
// thread has its association change from one queue to another while there are
// pending messages in the original queue, the association operation will
// fail. In that case, the agent must drain the original queue before
// re-issuing ASSOCIATE_QUEUE()."
//
// This policy is the per-CPU FIFO policy plus exactly that protocol: an
// agent whose runqueue is empty steals the longest-waiting thread from the
// most loaded sibling runqueue (all agents share the process address space,
// so runqueues are visible), re-associates the thread's queue — retrying
// after a drain when the association fails — and runs it locally.
#ifndef GHOST_SIM_SRC_POLICIES_WORK_STEALING_H_
#define GHOST_SIM_SRC_POLICIES_WORK_STEALING_H_

#include <cstdint>

#include "src/policies/per_cpu_fifo.h"

namespace gs {

class WorkStealingPolicy : public PerCpuFifoPolicy {
 public:
  const char* name() const override { return "work-stealing"; }

  uint64_t steals() const { return steals_; }
  uint64_t association_retries() const { return association_retries_; }

 protected:
  // Steals the longest-waiting thread from the deepest sibling runqueue into
  // `thief_cpu`, re-associating its message queue per §3.1.
  PolicyTask* Steal(AgentContext& ctx, int thief_cpu) override;

 private:
  uint64_t steals_ = 0;
  uint64_t association_retries_ = 0;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_POLICIES_WORK_STEALING_H_
