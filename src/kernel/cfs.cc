#include "src/kernel/cfs.h"

#include <algorithm>

#include "src/kernel/kernel.h"

namespace gs {
namespace {

// Linux's sched_prio_to_weight table: nice -20 .. +19.
constexpr int64_t kNiceToWeight[40] = {
    88761, 71755, 56483, 46273, 36291, 29154, 23254, 18705, 14949, 11916,
    9548,  7620,  6100,  4904,  3906,  3121,  2501,  1991,  1586,  1277,
    1024,  820,   655,   526,   423,   335,   272,   215,   172,   137,
    110,   87,    70,    56,    45,    36,    29,    23,    18,    15,
};

constexpr int64_t kWeight0 = 1024;

}  // namespace

int64_t CfsClass::NiceToWeight(int nice) {
  CHECK_GE(nice, -20);
  CHECK_LE(nice, 19);
  return kNiceToWeight[nice + 20];
}

CfsClass::CfsClass() : CfsClass(Params()) {}

CfsClass::CfsClass(Params params) : params_(params) {}

void CfsClass::Attach(Kernel* kernel) {
  SchedClass::Attach(kernel);
  rqs_.resize(kernel->topology().num_cpus());
  pull_to_.assign(kernel->topology().num_cpus(), -1);
}

void CfsClass::TaskNew(Task* task) {
  task->cfs() = CfsTaskState();
  task->cfs().weight = NiceToWeight(task->nice());
  // Runtime accumulated under other classes is not charged here.
  task->cfs().charged_runtime = task->total_runtime();
}

void CfsClass::TaskDeparted(Task* task) {
  if (task->cfs().queued) {
    Dequeue(task->cfs().rq_cpu, task);
  }
}

void CfsClass::Enqueue(int cpu, Task* task) {
  CfsTaskState& st = task->cfs();
  CHECK(!st.queued) << task->name() << " state=" << ToString(task->state())
                    << " rq=" << st.rq_cpu << " dst=" << cpu;
  st.queued = true;
  st.rq_cpu = cpu;
  rqs_[cpu].Insert({st.vruntime, task});
  const int depth = QueueDepth(cpu);
  Redepth(cpu, depth - 1, depth);
}

void CfsClass::Dequeue(int cpu, Task* task) {
  CfsTaskState& st = task->cfs();
  CHECK(st.queued) << task->name();
  CHECK_EQ(st.rq_cpu, cpu);
  rqs_[cpu].Erase({st.vruntime, task});
  st.queued = false;
  st.rq_cpu = -1;
  const int depth = QueueDepth(cpu);
  Redepth(cpu, depth + 1, depth);
}

void CfsClass::Redepth(int cpu, int from, int to) {
  if (from > 0) {
    depth_cpus_[from].Clear(cpu);
  }
  if (to > 0) {
    if (to >= static_cast<int>(depth_cpus_.size())) {
      depth_cpus_.resize(to + 1);
    }
    depth_cpus_[to].Set(cpu);
  }
  // Depths move by one, so the maximum rises to `to` or, when `cpu` was the
  // last runqueue at the maximum, falls to `to`, which `cpu` now occupies.
  if (to > max_depth_ || (from == max_depth_ && depth_cpus_[from].Empty())) {
    max_depth_ = to;
  }
}

int CfsClass::SelectCpu(const Task* task) const {
  const Topology& topo = kernel_->topology();
  const CpuMask& affinity = task->affinity();
  const CpuMask& idle = kernel_->idle_cpus();

  // `vacant` leaves the affinity check to its caller.
  auto vacant = [&](int cpu) {
    return kernel_->CpuAvailableFor(cpu, this) && rqs_[cpu].queue.empty();
  };
  auto usable = [&](int cpu) {
    return cpu >= 0 && cpu < topo.num_cpus() && affinity.IsSet(cpu) && vacant(cpu);
  };

  // select_idle_sibling(): the idle search is scoped to the previous CPU's
  // LLC domain (the whole socket on monolithic-L3 Intel parts, a 4-core CCX
  // on AMD Rome). A waking task does NOT scan the rest of the machine for
  // idle CPUs — spreading beyond the LLC is left to (ms-scale) load
  // balancing, which is exactly the latency artifact §4.4 measures against.
  const int prev = task->last_cpu();
  if (usable(prev)) {
    return prev;
  }
  if (prev >= 0) {
    const CpuInfo& info = topo.cpu(prev);
    if (usable(info.sibling)) {
      return info.sibling;
    }
    // The first vacant CPU of the LLC domain; failing that, queue on the
    // least-loaded rq within it (falling back to prev when affinity excludes
    // the whole domain). One pass finds both.
    const CpuMask llc = topo.CcxMask(info.ccx) & affinity;
    int best = -1;
    size_t best_depth = SIZE_MAX;
    for (int cpu = llc.First(); cpu >= 0; cpu = llc.NextAfter(cpu)) {
      if (vacant(cpu)) {
        return cpu;
      }
      const size_t depth = rqs_[cpu].queue.size() + (idle.IsSet(cpu) ? 0 : 1);
      if (depth < best_depth) {
        best_depth = depth;
        best = cpu;
      }
    }
    if (best >= 0) {
      return best;
    }
    if (affinity.IsSet(prev)) {
      return prev;
    }
  }
  // Never ran (fork balancing) or affinity moved: least-loaded allowed rq.
  int best = -1;
  size_t best_depth = SIZE_MAX;
  for (int cpu = affinity.First(); cpu >= 0 && cpu < topo.num_cpus();
       cpu = affinity.NextAfter(cpu)) {
    const size_t depth = rqs_[cpu].queue.size() + (idle.IsSet(cpu) ? 0 : 1);
    if (depth < best_depth) {
      best_depth = depth;
      best = cpu;
    }
  }
  CHECK_GE(best, 0) << "no allowed CPU for " << task->name();
  return best;
}

void CfsClass::EnqueueWake(Task* task) {
  task->cfs().weight = NiceToWeight(task->nice());
  const int cpu = SelectCpu(task);
  Rq& rq = rqs_[cpu];
  // Renormalize into the destination rq's virtual clock. Sleeper credit
  // places the waker no further back than min_vruntime - latency/2; the
  // ceiling bounds how much virtual lead a waker can carry across rqs whose
  // clocks advance at very different rates (a low-weight hog advances its
  // rq's clock ~70x faster than a nice -20 rq) — the kernel achieves the
  // same via per-entity renormalization on migration.
  const int64_t floor = rq.min_vruntime - params_.sched_latency / 2;
  const int64_t ceiling = rq.min_vruntime + params_.sched_latency;
  task->cfs().vruntime = std::clamp(task->cfs().vruntime, floor, ceiling);
  Enqueue(cpu, task);
  CheckWakeupPreemption(cpu, task);
}

void CfsClass::CheckWakeupPreemption(int cpu, Task* waking) {
  if (kernel_->CpuAvailableFor(cpu, this)) {
    kernel_->ReschedCpu(cpu);
    return;
  }
  const Task* current = kernel_->current(cpu);
  if (current == nullptr || current->sched_class() != this) {
    return;  // higher-priority class running: wait
  }
  // Approximate check_preempt_wakeup: preempt if the waking task is
  // sufficiently behind the current one in virtual time.
  const int64_t curr_vruntime =
      current->cfs().vruntime + kernel_->CurrentElapsed(cpu) * kWeight0 / current->cfs().weight;
  if (waking->cfs().vruntime + params_.wakeup_granularity < curr_vruntime) {
    kernel_->ReschedCpu(cpu);
  }
}

void CfsClass::ChargeVruntime(Task* task, int cpu) {
  CfsTaskState& st = task->cfs();
  const Duration ran = task->total_runtime() - st.charged_runtime;
  if (ran > 0) {
    st.vruntime += ran * kWeight0 / st.weight;
  }
  st.charged_runtime = task->total_runtime();
  // Advance the rq's virtual clock with the running task (update_min_vruntime).
  if (cpu >= 0) {
    Rq& rq = rqs_[cpu];
    int64_t clock = st.vruntime;
    if (!rq.queue.empty()) {
      clock = std::min(clock, rq.queue.front().first);
    }
    rq.min_vruntime = std::max(rq.min_vruntime, clock);
  }
}

void CfsClass::PutPrev(Task* task, int cpu, PutPrevReason reason) {
  ChargeVruntime(task, cpu);
  if (reason == PutPrevReason::kPreempted || reason == PutPrevReason::kYielded) {
    int target = cpu;
    if (pull_to_[cpu] >= 0 && task->affinity().IsSet(pull_to_[cpu])) {
      // Active balance completes: steer the preempted task to the idle core.
      target = pull_to_[cpu];
      task->cfs().vruntime = rqs_[target].min_vruntime;
      ++steals_;
    } else if (!task->affinity().IsSet(cpu)) {
      target = SelectCpu(task);
    }
    pull_to_[cpu] = -1;
    Enqueue(target, task);
    if (target != cpu) {
      kernel_->ReschedCpu(target);
    }
  } else {
    pull_to_[cpu] = -1;
  }
  // kBlocked / kExited: forget it (vruntime persists on the task).
}

Task* CfsClass::PickNext(int cpu) {
  Rq& rq = rqs_[cpu];
  if (rq.queue.empty()) {
    // Idle balance: try to pull work from the most loaded runqueue.
    if (PullOne(cpu) == nullptr) {
      return nullptr;
    }
  }
  const auto [vruntime, task] = rq.queue.front();
  rq.min_vruntime = std::max(rq.min_vruntime, vruntime);
  Dequeue(cpu, task);
  task->cfs().charged_runtime = task->total_runtime();  // start of charge window
  return task;
}

int CfsClass::PullSource(int cpu) const {
  // Walk the depth index downward; within a depth, CPUs come lowest first.
  for (int depth = max_depth_; depth > 0; --depth) {
    CpuMask busy = depth_cpus_[depth];
    // Don't steal from a queue whose own CPU is about to drain it — that
    // only ping-pongs tasks (e.g. right after an active-balance push).
    busy.AndNot(kernel_->idle_cpus());
    for (int other = busy.First(); other >= 0; other = busy.NextAfter(other)) {
      if (other == cpu) {
        continue;
      }
      for (const auto& [vruntime, task] : rqs_[other].queue) {
        if (task->affinity().IsSet(cpu)) {
          return other;
        }
      }
    }
  }
  return -1;
}

Task* CfsClass::PullOne(int cpu) {
  const int busiest = PullSource(cpu);
  if (busiest < 0) {
    return nullptr;
  }
  Rq& src = rqs_[busiest];
  for (const auto& [vruntime, task] : src.queue) {
    if (!task->affinity().IsSet(cpu)) {
      continue;
    }
    Task* pulled = task;
    Dequeue(busiest, pulled);
    // Re-normalize into the destination rq's virtual clock, with the offset
    // bounded to one scheduling latency so clock-rate differences between
    // rqs cannot compound across repeated migrations.
    const int64_t rel = std::clamp(pulled->cfs().vruntime - src.min_vruntime,
                                   -params_.sched_latency / 2, params_.sched_latency);
    pulled->cfs().vruntime = rqs_[cpu].min_vruntime + rel;
    Enqueue(cpu, pulled);
    ++steals_;
    return pulled;
  }
  return nullptr;
}

void CfsClass::TaskTick(int cpu, Task* current) {
  ChargeVruntime(current, cpu);
  Rq& rq = rqs_[cpu];
  const int nr_running = static_cast<int>(rq.queue.size()) + 1;
  if (nr_running > 1) {
    const Duration slice =
        std::max(params_.min_granularity, params_.sched_latency / nr_running);
    if (kernel_->CurrentElapsed(cpu) >= slice) {
      kernel_->ReschedCpu(cpu);
    }
  }
  if (++rq.ticks_since_balance >= params_.balance_interval_ticks) {
    rq.ticks_since_balance = 0;
    // Periodic balance: if this CPU is much less loaded than the busiest,
    // pull one task over (ms-scale, like Linux's rebalance_domains()).
    if (max_depth_ >= QueueDepth(cpu) + 2) {
      PullOne(cpu);
    }
  }
}

void CfsClass::IdleTick(int cpu) {
  Rq& rq = rqs_[cpu];
  if (!kernel_->CpuAvailableFor(cpu, this)) {
    return;  // a higher-priority class owns the CPU
  }
  if (!rq.queue.empty()) {
    // Safety: runnable work and an available CPU — make sure a pick happens.
    kernel_->ReschedCpu(cpu);
    return;
  }
  if (PullOne(cpu) != nullptr) {
    kernel_->ReschedCpu(cpu);
    return;
  }
  // Nothing queued anywhere: SMT-aware active balance (ms-scale, like the
  // kernel's SD_SHARE_CPUCAPACITY domain) — relieve a dual-busy core if this
  // whole core is idle.
  if (++rq.ticks_since_balance >= params_.balance_interval_ticks) {
    rq.ticks_since_balance = 0;
    const int sibling = kernel_->topology().cpu(cpu).sibling;
    if (sibling < 0 || kernel_->CpuIdle(sibling)) {
      ActiveBalance(cpu);
    }
  }
}

bool CfsClass::ActiveBalance(int idle_cpu) {
  const Topology& topo = kernel_->topology();
  for (const CpuInfo& info : topo.cpus()) {
    if (info.sibling < 0 || info.id > info.sibling) {
      continue;  // visit each core once
    }
    const Task* a = kernel_->current(info.id);
    const Task* b = kernel_->current(info.sibling);
    if (a == nullptr || b == nullptr || a->sched_class() != this ||
        b->sched_class() != this) {
      continue;
    }
    // Move one of the pair (the one allowed on the idle CPU).
    for (int victim_cpu : {info.id, info.sibling}) {
      const Task* victim = kernel_->current(victim_cpu);
      if (victim != nullptr && victim->affinity().IsSet(idle_cpu) &&
          pull_to_[victim_cpu] < 0) {
        pull_to_[victim_cpu] = idle_cpu;
        kernel_->ReschedCpu(victim_cpu);
        return true;
      }
    }
  }
  return false;
}

void CfsClass::AffinityChanged(Task* task) {
  if (task->cfs().queued && !task->affinity().IsSet(task->cfs().rq_cpu)) {
    Dequeue(task->cfs().rq_cpu, task);
    const int cpu = SelectCpu(task);
    Enqueue(cpu, task);
    kernel_->ReschedCpu(cpu);
  }
}

bool CfsClass::HasQueuedWork(int cpu) const { return !rqs_[cpu].queue.empty(); }

}  // namespace gs
