// Task: a simulated native OS thread.
//
// Work is expressed as *bursts*: a task that is given the CPU executes its
// current burst (possibly across preemptions, with exact progress accounting
// and CPU-dependent speed factors) and, when the burst's demanded CPU time is
// fully consumed, its completion callback runs. The callback — workload code —
// then blocks the task, starts another burst, yields, or exits. This is
// expressive enough for every workload in the paper's evaluation
// (request servers, packet processing, batch antagonists, vCPUs) while
// keeping the kernel's scheduling machinery workload-agnostic.
#ifndef GHOST_SIM_SRC_KERNEL_TASK_H_
#define GHOST_SIM_SRC_KERNEL_TASK_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>

#include "src/base/cpumask.h"
#include "src/base/inline_callback.h"
#include "src/base/time.h"
#include "src/sim/event_loop.h"

namespace gs {

class SchedClass;
class Task;

enum class TaskState {
  kCreated,   // exists, never woken
  kRunnable,  // wants a CPU
  kRunning,   // on a CPU
  kBlocked,   // waiting (I/O, futex, request queue, ...)
  kDead,      // exited
};

const char* ToString(TaskState state);

// Why a running task was descheduled; sched classes receive this in
// PutPrev() (the ghOSt class turns it into THREAD_* messages).
enum class PutPrevReason {
  kPreempted,  // higher-priority or same-class preemption
  kBlocked,    // task blocked itself
  kYielded,    // task yielded voluntarily
  kExited,     // task died
};

// Per-class scheduler state embedded in the task, mirroring how task_struct
// embeds sched_entity / sched_rt_entity.
struct CfsTaskState {
  int64_t vruntime = 0;
  int64_t weight = 1024;  // nice 0
  bool queued = false;
  int rq_cpu = -1;  // which per-CPU runqueue holds it when queued
  // Portion of the task's total_runtime already converted into vruntime.
  Duration charged_runtime = 0;
};

struct MicroQuantaTaskState {
  Duration period = Milliseconds(1);
  Duration quanta = Nanoseconds(900'000);
  Time window_start = 0;
  Duration used_in_window = 0;
  Time run_begin = 0;  // when the task last started running (budget charge)
  bool throttled = false;
  bool queued = false;
  int rq_cpu = -1;
  EventId unthrottle_event = kInvalidEventId;
};

struct CoreSchedTaskState {
  int64_t cookie = 0;  // VM identity: only equal cookies share a physical core
  Duration vruntime = 0;
  bool queued = false;
};

class Task {
 public:
  // Burst completions fire once per simulated burst — hundreds of millions
  // per bench run. InlineFunction keeps the capture in the task itself; a
  // std::function here means a heap allocation per agent iteration.
  using BurstDoneFn = InlineFunction<void(Task*)>;

  Task(int64_t tid, std::string name) : tid_(tid), name_(std::move(name)) {
    affinity_.SetAll();
  }

  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;

  int64_t tid() const { return tid_; }
  const std::string& name() const { return name_; }

  TaskState state() const { return state_; }
  void set_state(TaskState state) { state_ = state; }

  SchedClass* sched_class() const { return sched_class_; }
  void set_sched_class(SchedClass* cls) { sched_class_ = cls; }

  int nice() const { return nice_; }
  void set_nice(int nice) { nice_ = nice; }

  const CpuMask& affinity() const { return affinity_; }
  void set_affinity(const CpuMask& mask) { affinity_ = mask; }

  int cpu() const { return cpu_; }
  void set_cpu(int cpu) { cpu_ = cpu; }
  int last_cpu() const { return last_cpu_; }
  void set_last_cpu(int cpu) { last_cpu_ = cpu; }
  Time last_descheduled() const { return last_descheduled_; }
  void set_last_descheduled(Time t) { last_descheduled_ = t; }

  Duration total_runtime() const { return total_runtime_; }
  void AddRuntime(Duration d) { total_runtime_ += d; }

  // --- Burst model ---------------------------------------------------------
  bool has_burst() const { return burst_remaining_ > 0; }
  Duration burst_remaining() const { return burst_remaining_; }
  // A zero-length burst has no remaining work but still owes its completion
  // callback; placement must re-arm the completion event for it (a same-
  // instant preemption may have canceled the one StartBurst armed).
  bool has_pending_burst_done() const { return static_cast<bool>(on_burst_done_); }
  // Builds a void(Task*) callable in place as the burst-done callback; a
  // BurstDoneFn (or nullptr) is moved in.
  template <typename F>
  void SetBurst(Duration d, F&& done) {
    burst_remaining_ = d;
    if constexpr (std::is_same_v<std::decay_t<F>, BurstDoneFn> ||
                  std::is_same_v<std::decay_t<F>, std::nullptr_t>) {
      on_burst_done_ = std::forward<F>(done);
    } else {
      on_burst_done_.Emplace(std::forward<F>(done));
    }
  }
  void ConsumeBurst(Duration d) {
    burst_remaining_ -= d;
    if (burst_remaining_ < 0) {
      burst_remaining_ = 0;
    }
  }
  // Extend the remaining burst (e.g. tick/VM-exit overhead charged to the
  // interrupted task).
  void AddBurst(Duration d) { burst_remaining_ += d; }
  // Inflate the remaining burst (cache-cold penalty at placement time).
  void InflateBurst(double factor) {
    burst_remaining_ = static_cast<Duration>(static_cast<double>(burst_remaining_) * factor);
  }
  BurstDoneFn TakeBurstDone() {
    BurstDoneFn fn = std::move(on_burst_done_);
    on_burst_done_ = nullptr;
    return fn;
  }

  // Hook invoked every time this task is placed on a CPU (fresh placement),
  // before its burst is armed. Agents use it to run their scheduling loop.
  // Embedded here so StartRunning never touches a side map.
  const InlineFunction<void(Task*)>& on_scheduled() const { return on_scheduled_; }
  void set_on_scheduled(InlineFunction<void(Task*)> hook) {
    on_scheduled_ = std::move(hook);
  }

  // Time when this task became runnable (for wakeup-latency accounting).
  Time runnable_since() const { return runnable_since_; }
  void set_runnable_since(Time t) { runnable_since_ = t; }

  // A wakeup arrived while the task was blocked but still on its CPU (its
  // deschedule hadn't completed) — the ttwu-on_cpu race. The kernel re-wakes
  // the task right after the deschedule completes.
  bool wake_pending() const { return wake_pending_; }
  void set_wake_pending(bool pending) { wake_pending_ = pending; }

  // CPU currently context-switching this task in (cs.switching_to points
  // here), or -1. A task in this window is still kRunnable, so schedulers
  // must treat it as already placed: picking or latching it elsewhere would
  // double-commit the thread.
  int inbound_cpu() const { return inbound_cpu_; }
  void set_inbound_cpu(int cpu) { inbound_cpu_ = cpu; }

  // Agent threads take the cheaper agent context-switch path and agent SMT
  // factor. Set once via Kernel::MarkAgent; checked on every context switch.
  bool is_agent() const { return is_agent_; }
  void set_is_agent(bool is_agent) { is_agent_ = is_agent; }

  // --- Per-class embedded state ---------------------------------------------
  CfsTaskState& cfs() { return cfs_; }
  const CfsTaskState& cfs() const { return cfs_; }
  MicroQuantaTaskState& mq() { return mq_; }
  const MicroQuantaTaskState& mq() const { return mq_; }
  CoreSchedTaskState& core_sched() { return core_sched_; }
  const CoreSchedTaskState& core_sched() const { return core_sched_; }

  // Opaque per-module attachments (ghOSt task state, agent state). The owner
  // module manages lifetime.
  void* ghost_state() const { return ghost_state_; }
  void set_ghost_state(void* state) { ghost_state_ = state; }
  void* agent_state() const { return agent_state_; }
  void set_agent_state(void* state) { agent_state_ = state; }

  // Generic workload attachment (e.g. which request a worker is serving).
  void* user_data() const { return user_data_; }
  void set_user_data(void* data) { user_data_ = data; }

 private:
  const int64_t tid_;
  const std::string name_;

  TaskState state_ = TaskState::kCreated;
  SchedClass* sched_class_ = nullptr;
  int nice_ = 0;
  CpuMask affinity_;

  int cpu_ = -1;
  int inbound_cpu_ = -1;
  int last_cpu_ = -1;
  Time last_descheduled_ = 0;
  Time runnable_since_ = 0;
  Duration total_runtime_ = 0;
  bool wake_pending_ = false;
  bool is_agent_ = false;

  Duration burst_remaining_ = 0;
  BurstDoneFn on_burst_done_;
  InlineFunction<void(Task*)> on_scheduled_;

  CfsTaskState cfs_;
  MicroQuantaTaskState mq_;
  CoreSchedTaskState core_sched_;
  void* ghost_state_ = nullptr;
  void* agent_state_ = nullptr;
  void* user_data_ = nullptr;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_KERNEL_TASK_H_
