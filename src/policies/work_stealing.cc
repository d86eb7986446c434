#include "src/policies/work_stealing.h"

#include <vector>

namespace gs {

PolicyTask* WorkStealingPolicy::Steal(AgentContext& ctx, int thief_cpu) {
  // Pick the deepest victim runqueue (agents share the process, so reading
  // sibling queues is a plain memory access).
  int victim_cpu = -1;
  size_t deepest = 0;
  for (int cpu = 0; cpu < static_cast<int>(cpus_.size()); ++cpu) {
    if (cpu != thief_cpu && cpus_[cpu].runqueue.size() > deepest) {
      deepest = cpus_[cpu].runqueue.size();
      victim_cpu = cpu;
    }
  }
  if (victim_cpu < 0) {
    return nullptr;
  }
  FifoRunqueue& victim = cpus_[victim_cpu].runqueue;
  // Snapshot: the drain in the retry path may mutate the victim runqueue.
  const std::vector<PolicyTask*> candidates(victim.raw().begin(), victim.raw().end());
  for (PolicyTask* candidate : candidates) {
    if (!candidate->queued || !candidate->affinity.IsSet(thief_cpu)) {
      continue;
    }
    // §3.1 protocol: move the thread's message routing to the thief's queue.
    // The association fails while messages for the thread sit undrained in
    // the victim queue; drain it (messages are applied as usual — the victim
    // agent will see an empty queue) and retry once.
    ctx.Charge(ctx.kernel()->cost().syscall);
    if (!enclave()->AssociateQueue(candidate->tid, queue_of(thief_cpu))) {
      ++association_retries_;
      std::vector<Message> drained;
      ctx.Drain(queue_of(victim_cpu), &drained);
      for (const Message& msg : drained) {
        Dispatch(ctx, msg);
      }
      ctx.Charge(ctx.kernel()->cost().syscall);
      if (!enclave()->AssociateQueue(candidate->tid, queue_of(thief_cpu))) {
        continue;
      }
      // Draining may have dequeued the candidate (it blocked/died).
      if (!candidate->queued) {
        continue;
      }
    }
    victim.Remove(candidate);
    candidate->home_cpu = thief_cpu;
    ++steals_;
    return candidate;  // caller runs it (still marked queued until dispatch)
  }
  return nullptr;
}

}  // namespace gs
