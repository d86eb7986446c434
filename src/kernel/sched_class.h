// Scheduling-class interface, mirroring Linux's struct sched_class.
//
// Classes are consulted in strict priority order by Kernel::PickNext (§2 of
// the paper): the agent class sits on top (like SCHED_FIFO), then optional
// experiment classes (MicroQuanta, core scheduling), then CFS, and the ghOSt
// class at the bottom so that "most threads in the system will preempt ghOSt
// threads" (§3.4).
#ifndef GHOST_SIM_SRC_KERNEL_SCHED_CLASS_H_
#define GHOST_SIM_SRC_KERNEL_SCHED_CLASS_H_

#include <string>

#include "src/kernel/task.h"

namespace gs {

class Kernel;

class SchedClass {
 public:
  virtual ~SchedClass() = default;

  virtual const char* name() const = 0;

  // Called once when the class is installed.
  virtual void Attach(Kernel* kernel) { kernel_ = kernel; }

  // A task was assigned to this class (creation or setscheduler).
  virtual void TaskNew(Task* task) = 0;

  // A task left this class (setscheduler away) or died. The task is not
  // running and not queued when this is called.
  virtual void TaskDeparted(Task* task) = 0;

  // The task became runnable (wakeup). The class may select a CPU and request
  // a resched via Kernel::ReschedCpu().
  virtual void EnqueueWake(Task* task) = 0;

  // `task` is coming off `cpu`. If the reason leaves it runnable
  // (kPreempted/kYielded) the class must requeue it; for kBlocked/kExited it
  // must forget it. Always called before PickNext for that CPU.
  virtual void PutPrev(Task* task, int cpu, PutPrevReason reason) = 0;

  // A running task died, called synchronously from Kernel::Exit() before the
  // freed CPU's (zero-delay, but separately ordered) reschedule event runs.
  // Classes that expose per-task state to outside observers (ghOSt's status
  // words and enclave tables) tear it down here so no event ordering can see
  // a dead-but-still-managed task — mirroring the real kernel's task_dead
  // hook, which runs in the exit path itself. The default leaves everything
  // to the reschedule's PutPrev(kExited).
  virtual void TaskExited(Task* task) {}

  // Returns the task this class wants on `cpu` now (possibly the task just
  // passed to PutPrev), or nullptr. The class removes the returned task from
  // its queues before returning it.
  virtual Task* PickNext(int cpu) = 0;

  // The task actually started running on `cpu` (after any context-switch
  // delay). Classes that enforce budgets (MicroQuanta) arm timers here.
  virtual void TaskStarted(int cpu, Task* task) {}

  // Periodic timer tick while `current` (owned by this class) runs on `cpu`.
  virtual void TaskTick(int cpu, Task* current) {}

  // Tick on an idle CPU (used for load balancing / TIMER_TICK messages).
  virtual void IdleTick(int cpu) {}

  // The task's affinity changed (sched_setaffinity). Task may be queued,
  // running, or blocked; the class must make its queues consistent.
  virtual void AffinityChanged(Task* task) {}

  // True if this class has any runnable (queued) task that `cpu` could run.
  // Used by the kernel to decide whether an idle CPU should look further.
  virtual bool HasQueuedWork(int cpu) const { return false; }

 protected:
  Kernel* kernel_ = nullptr;

 private:
  friend class Kernel;
  // Position in the owning kernel's strict class order (0 = highest), stored
  // by Kernel::InstallClasses so a priority compare needs no search; -1 until
  // installed. Kernel::ClassIndex is the checked reader.
  int priority_index_ = -1;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_KERNEL_SCHED_CLASS_H_
