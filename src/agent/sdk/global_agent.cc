#include "src/agent/sdk/global_agent.h"

#include "src/agent/agent_process.h"

namespace gs {

void GlobalAgentPolicy::Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) {
  process_ = process;
  enclave_ = enclave;
  global_cpu_ = requested_cpu_ >= 0 ? requested_cpu_ : enclave->cpus().First();
}

std::optional<AgentAction> GlobalAgentPolicy::BeforeDrain(AgentContext& ctx) {
  if (ctx.agent_cpu() != global_cpu_) {
    return AgentAction::kBlock;  // inactive agent (Fig 2)
  }
  assignments_.clear();
  if (hot_handoff_ && ctx.HigherClassWaitersOn(global_cpu_) && HandOff(ctx)) {
    // Yield (not block): the waiting kernel thread takes this CPU, and the
    // old agent re-blocks as a normal inactive agent on its next run.
    return AgentAction::kYield;
  }
  // No waiter, or no idle CPU to hand off to: keep scheduling (the kernel
  // thread waits, exactly as when all CPUs are busy).
  return std::nullopt;
}

bool GlobalAgentPolicy::HandOff(AgentContext& ctx) {
  const CpuMask idle = ctx.AvailableCpus();
  for (int cpu = idle.First(); cpu >= 0; cpu = idle.NextAfter(cpu)) {
    Task* successor = process_->agent_on(cpu);
    if (successor == nullptr || successor->state() != TaskState::kBlocked) {
      continue;
    }
    global_cpu_ = cpu;
    ++hot_handoffs_;
    ctx.Charge(ctx.kernel()->cost().syscall + ctx.kernel()->cost().agent_wakeup);
    ctx.kernel()->Wake(successor);
    return true;
  }
  return false;
}

void GlobalAgentPolicy::CollectQueues(AgentContext& ctx,
                                      std::vector<MessageQueue*>* queues) {
  queues->push_back(enclave_->default_queue());
}

}  // namespace gs
