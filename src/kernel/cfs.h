// CFS: a faithful-in-spirit model of Linux's Completely Fair Scheduler.
//
// This is both the default class that ghOSt co-exists with (§3.4: ghOSt
// threads are preempted by CFS threads; crashed enclaves fall back to CFS)
// and the baseline scheduler for the Fig 6 (CFS-Shinjuku), Fig 8 (Google
// Search) and Table 4 comparisons. It implements the behaviours those
// experiments depend on:
//
//  * per-CPU vruntime runqueues with the standard nice->weight table,
//  * sleeper credit on wakeup and wakeup preemption,
//  * slice expiry on the 1 ms tick (sched_latency / nr_running),
//  * topology-aware wake placement (prev CPU -> sibling -> CCX -> NUMA),
//  * idle balancing (pull on idle) and *periodic* load balancing at
//    millisecond scale — the slow rebalancing the paper contrasts with a
//    spinning global agent (§4.4).
#ifndef GHOST_SIM_SRC_KERNEL_CFS_H_
#define GHOST_SIM_SRC_KERNEL_CFS_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "src/base/logging.h"
#include "src/kernel/sched_class.h"

namespace gs {

class CfsClass : public SchedClass {
 public:
  struct Params {
    Duration sched_latency = Milliseconds(6);
    Duration min_granularity = Microseconds(750);
    Duration wakeup_granularity = Milliseconds(1);
    // Periodic load balance interval, in ticks (Linux: O(ms), scaled by
    // domain size; 4 ms is representative for one socket).
    int balance_interval_ticks = 4;
  };

  CfsClass();
  explicit CfsClass(Params params);

  const char* name() const override { return "cfs"; }
  void Attach(Kernel* kernel) override;
  void TaskNew(Task* task) override;
  void TaskDeparted(Task* task) override;
  void EnqueueWake(Task* task) override;
  void PutPrev(Task* task, int cpu, PutPrevReason reason) override;
  Task* PickNext(int cpu) override;
  void TaskTick(int cpu, Task* current) override;
  void IdleTick(int cpu) override;
  void AffinityChanged(Task* task) override;
  bool HasQueuedWork(int cpu) const override;

  // Statistics.
  uint64_t steals() const { return steals_; }
  int QueueDepth(int cpu) const { return static_cast<int>(rqs_[cpu].queue.size()); }
  // The deepest runqueue's depth (0 when nothing is queued).
  int MaxQueueDepth() const { return max_depth_; }

  // Picks a CPU for a waking task: previous CPU if available, then outward
  // through the topology, else the least-loaded allowed runqueue.
  int SelectCpu(const Task* task) const;
  // The runqueue an idle pull into `cpu` steals from: the deepest runqueue
  // of a busy CPU other than `cpu` that holds a task allowed on `cpu`, the
  // lowest such CPU among equals; -1 if there is none.
  int PullSource(int cpu) const;

  static int64_t NiceToWeight(int nice);

 private:
  // Ordered by (vruntime, tid) — leftmost is next. The tid tie-break keeps
  // ordering independent of Task allocation addresses.
  struct ByVruntimeTid {
    bool operator()(const std::pair<int64_t, Task*>& a,
                    const std::pair<int64_t, Task*>& b) const {
      if (a.first != b.first) {
        return a.first < b.first;
      }
      return a.second->tid() < b.second->tid();
    }
  };

  struct Rq {
    // A flat sorted vector instead of std::set: per-CPU depth is small (a
    // handful of tasks), so a shift of a few contiguous pairs beats a
    // red-black rebalance plus node malloc/free on every enqueue/dequeue,
    // and the leftmost pick is a front() read.
    std::vector<std::pair<int64_t, Task*>> queue;
    int64_t min_vruntime = 0;
    int ticks_since_balance = 0;

    void Insert(std::pair<int64_t, Task*> entry) {
      queue.insert(std::lower_bound(queue.begin(), queue.end(), entry,
                                    ByVruntimeTid()),
                   entry);
    }
    void Erase(std::pair<int64_t, Task*> entry) {
      auto it = std::lower_bound(queue.begin(), queue.end(), entry,
                                 ByVruntimeTid());
      CHECK(it != queue.end() && it->second == entry.second)
          << entry.second->name() << " not on rq";
      queue.erase(it);
    }
  };

  void Enqueue(int cpu, Task* task);
  void Dequeue(int cpu, Task* task);
  // Moves `cpu` from depth `from` to depth `to` in the depth index.
  void Redepth(int cpu, int from, int to);
  // Charges vruntime for runtime accumulated since the task was picked.
  void ChargeVruntime(Task* task, int cpu);
  // Pulls one stealable task from PullSource(cpu) into `cpu`'s runqueue.
  // Returns the pulled task or nullptr.
  Task* PullOne(int cpu);
  // Active balance (migration_cpu_stop): when a whole core idles while
  // another core runs tasks on both hyperthreads, preempt one of them and
  // steer it here. Returns true if a migration was initiated.
  bool ActiveBalance(int idle_cpu);
  void CheckWakeupPreemption(int cpu, Task* waking);

  Params params_;
  std::vector<Rq> rqs_;
  // Depth index: depth_cpus_[d] holds the CPUs whose runqueue holds exactly
  // d tasks (d >= 1; entry 0 stays empty), and max_depth_ is the highest
  // occupied depth. Enqueue and Dequeue keep both exact, so balancing reads
  // the busiest runqueues without visiting every CPU's, and a class with
  // nothing queued (e.g. fig5's pure-ghOSt regime) answers an idle pull in
  // O(1).
  std::vector<CpuMask> depth_cpus_;
  int max_depth_ = 0;
  // Pending active-balance destination per source CPU (-1 = none): the next
  // PutPrev(kPreempted) on that CPU enqueues onto the destination instead.
  std::vector<int> pull_to_;
  uint64_t steals_ = 0;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_KERNEL_CFS_H_
