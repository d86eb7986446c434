#include "src/policies/per_cpu_fifo.h"

#include <utility>

#include "src/kernel/kernel.h"

namespace gs {

void PerCpuFifoPolicy::Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) {
  PerCpuAgentPolicy::Attached(process, enclave, kernel);
  cpus_.resize(kernel->topology().num_cpus());
}

void PerCpuFifoPolicy::ResetRunqueues() {
  for (CpuSched& sched : cpus_) {
    sched.runqueue.Clear();
  }
}

void PerCpuFifoPolicy::TimerTick(AgentContext& ctx, const Message& msg) {
  cpus_[msg.cpu].rotate = true;  // rotation decision is made in Pick()
}

void PerCpuFifoPolicy::Push(PolicyTask* task, int cpu, QueueAt at) {
  if (at == QueueAt::kFront) {
    cpus_[cpu].runqueue.PushFront(task);
  } else {
    cpus_[cpu].runqueue.Push(task);
  }
}

PolicyTask* PerCpuFifoPolicy::Pick(AgentContext& ctx, int cpu) {
  CpuSched& cs = cpus_[cpu];
  // Round-robin on timer ticks: rotate the interrupted thread to the back.
  if (std::exchange(cs.rotate, false) && cs.runqueue.size() >= 2) {
    cs.runqueue.Push(cs.runqueue.Pop());
  }
  PolicyTask* next = cs.runqueue.Pop();
  return next != nullptr ? next : Steal(ctx, cpu);
}

}  // namespace gs
