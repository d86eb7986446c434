#include "src/kernel/agent_class.h"

#include "src/kernel/kernel.h"

namespace gs {

void AgentClass::Attach(Kernel* kernel) {
  SchedClass::Attach(kernel);
  agents_.resize(kernel->topology().num_cpus());
}

void AgentClass::RegisterAgent(int cpu, Task* agent) {
  CHECK_GE(cpu, 0);
  CHECK_LT(cpu, static_cast<int>(agents_.size()));
  Slot& slot = agents_[cpu];
  CHECK(slot.task == nullptr || slot.task->state() == TaskState::kDead)
      << "CPU " << cpu << " already has a live agent";
  slot.task = agent;
  slot.queued = false;
  agent->set_affinity(CpuMask::Single(cpu));
  kernel_->MarkAgent(agent);
}

void AgentClass::UnregisterAgent(int cpu, Task* agent) {
  Slot& slot = agents_[cpu];
  CHECK_EQ(slot.task, agent);
  slot.task = nullptr;
  slot.queued = false;
}

int AgentClass::CpuOf(const Task* task) const {
  for (size_t cpu = 0; cpu < agents_.size(); ++cpu) {
    if (agents_[cpu].task == task) {
      return static_cast<int>(cpu);
    }
  }
  LOG(FATAL) << task->name() << " is not a registered agent";
  return -1;
}

void AgentClass::TaskDeparted(Task* task) {
  for (Slot& slot : agents_) {
    if (slot.task == task) {
      slot.queued = false;
      return;
    }
  }
  // The agent was unregistered (process shutdown/crash) before it was
  // killed, which already cleared its slot — possibly before it ever ran.
}

void AgentClass::EnqueueWake(Task* task) {
  const int cpu = CpuOf(task);
  agents_[cpu].queued = true;
  kernel_->ReschedCpu(cpu);
}

void AgentClass::PutPrev(Task* task, int cpu, PutPrevReason reason) {
  Slot& slot = agents_[cpu];
  if (slot.task != task) {
    // The agent was unregistered (process shutdown/crash) while still on its
    // CPU; this is its final deschedule.
    return;
  }
  switch (reason) {
    case PutPrevReason::kPreempted:
      // Top class: shouldn't occur, but requeue to be safe.
      slot.queued = true;
      break;
    case PutPrevReason::kYielded:
      // A yielding agent vacates its CPU (commit-and-yield, Fig 3) and sleeps
      // until the next queue wakeup.
      slot.queued = false;
      task->set_state(TaskState::kBlocked);
      break;
    case PutPrevReason::kBlocked:
    case PutPrevReason::kExited:
      slot.queued = false;
      break;
  }
}

Task* AgentClass::PickNext(int cpu) {
  Slot& slot = agents_[cpu];
  if (!slot.queued) {
    return nullptr;
  }
  slot.queued = false;
  return slot.task;
}

}  // namespace gs
