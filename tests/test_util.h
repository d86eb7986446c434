// Shared helpers for simulation tests.
#ifndef GHOST_SIM_TESTS_TEST_UTIL_H_
#define GHOST_SIM_TESTS_TEST_UTIL_H_

#include <functional>

#include "src/sim/simulation.h"

namespace gs {

// Creates a task that runs `burst` once and then exits.
inline Task* SpawnOneShot(Kernel& kernel, const std::string& name, Duration burst,
                          SchedClass* cls = nullptr,
                          std::function<void(Task*)> on_done = nullptr) {
  Task* task = kernel.CreateTask(name, cls);
  kernel.StartBurst(task, burst, [&kernel, on_done](Task* t) {
    if (on_done) {
      on_done(t);
    }
    kernel.Exit(t);
  });
  kernel.Wake(task);
  return task;
}

// Creates a CPU hog: runs forever in `chunk`-sized bursts.
inline Task* SpawnHog(Kernel& kernel, const std::string& name, SchedClass* cls = nullptr,
                      Duration chunk = Milliseconds(10)) {
  Task* task = kernel.CreateTask(name, cls);
  auto loop = std::make_shared<std::function<void(Task*)>>();
  *loop = [&kernel, chunk, loop](Task* t) { kernel.StartBurst(t, chunk, *loop); };
  kernel.StartBurst(task, chunk, *loop);
  kernel.Wake(task);
  return task;
}

// Kernel::CpuAvailableFor without the kernel's cache: the occupant from
// CpuState, class priorities by searching the installed order.
inline bool UncachedCpuAvailableFor(Kernel& kernel, int cpu, const SchedClass* cls) {
  const CpuState& cs = kernel.cpu_state(cpu);
  const Task* occupant = cs.switching ? cs.switching_to : cs.current;
  if (occupant == nullptr) {
    return true;
  }
  int occupant_index = -1;
  int cls_index = -1;
  for (int i = 0; i < kernel.num_classes(); ++i) {
    if (kernel.sched_class_at(i) == occupant->sched_class()) {
      occupant_index = i;
    }
    if (kernel.sched_class_at(i) == cls) {
      cls_index = i;
    }
  }
  return occupant_index > cls_index;
}

}  // namespace gs

#endif  // GHOST_SIM_TESTS_TEST_UTIL_H_
