// Focused CFS tests: weight-proportional sharing across the nice range,
// LLC-scoped wake placement, balancing, and virtual-clock stability.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <vector>

#include "src/base/rng.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace gs {
namespace {

// --- Weight table ---------------------------------------------------------------

TEST(CfsWeightTest, MatchesKernelTable) {
  EXPECT_EQ(CfsClass::NiceToWeight(0), 1024);
  EXPECT_EQ(CfsClass::NiceToWeight(-20), 88761);
  EXPECT_EQ(CfsClass::NiceToWeight(19), 15);
  // Each nice level is ~1.25x the next.
  for (int nice = -20; nice < 19; ++nice) {
    const double ratio = static_cast<double>(CfsClass::NiceToWeight(nice)) /
                         static_cast<double>(CfsClass::NiceToWeight(nice + 1));
    EXPECT_GT(ratio, 1.15) << "nice " << nice;
    EXPECT_LT(ratio, 1.35) << "nice " << nice;
  }
}

// --- Proportional sharing: parameterized over nice deltas -------------------------

class CfsNiceShareTest : public ::testing::TestWithParam<int> {};

TEST_P(CfsNiceShareTest, ShareFollowsWeightRatio) {
  const int nice_delta = GetParam();
  SimulationContext m({.topology = Topology::Make("t", 1, 1, 1, 1)});
  Task* a = m.kernel().CreateTask("a");
  Task* b = m.kernel().CreateTask("b");
  m.kernel().SetNice(b, nice_delta);
  for (Task* t : {a, b}) {
    auto loop = std::make_shared<std::function<void(Task*)>>();
    *loop = [&m, loop](Task* task) { m.kernel().StartBurst(task, Milliseconds(5), *loop); };
    m.kernel().StartBurst(t, Milliseconds(5), *loop);
    m.kernel().Wake(t);
  }
  m.RunFor(Seconds(2));
  const double expected = static_cast<double>(CfsClass::NiceToWeight(0)) /
                          static_cast<double>(CfsClass::NiceToWeight(nice_delta));
  const double measured =
      static_cast<double>(a->total_runtime()) / static_cast<double>(b->total_runtime());
  EXPECT_GT(measured, expected * 0.6) << "nice delta " << nice_delta;
  EXPECT_LT(measured, expected * 1.7) << "nice delta " << nice_delta;
}

INSTANTIATE_TEST_SUITE_P(NiceDeltas, CfsNiceShareTest, ::testing::Values(1, 3, 5, 10, 15, 19));

// --- N-way fairness sweep ----------------------------------------------------------

class CfsFairnessTest : public ::testing::TestWithParam<int> {};

TEST_P(CfsFairnessTest, EqualHogsGetEqualTime) {
  const int num_hogs = GetParam();
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  std::vector<Task*> hogs;
  for (int i = 0; i < num_hogs; ++i) {
    hogs.push_back(SpawnHog(m.kernel(), "h" + std::to_string(i), nullptr, Milliseconds(2)));
  }
  m.RunFor(Milliseconds(500));
  Duration min_rt = INT64_MAX, max_rt = 0;
  for (Task* hog : hogs) {
    min_rt = std::min(min_rt, hog->total_runtime());
    max_rt = std::max(max_rt, hog->total_runtime());
  }
  // With hogs divisible across CPUs CFS is near-perfectly fair; otherwise a
  // lone hog on one CPU legitimately gets up to 2x (real CFS behaves the
  // same: load balancing equalizes queue lengths, not attained time).
  const double bound = (num_hogs % 2 == 0) ? 1.35 : 2.3;
  EXPECT_LT(static_cast<double>(max_rt) / static_cast<double>(min_rt), bound)
      << num_hogs << " hogs";
}

INSTANTIATE_TEST_SUITE_P(HogCounts, CfsFairnessTest, ::testing::Values(2, 3, 4, 7, 12));

// --- Wake placement is LLC-scoped ----------------------------------------------------

TEST(CfsPlacementTest, WakePrefersPrevCpu) {
  SimulationContext m({.topology = Topology::Make("t", 1, 4, 1, 4)});
  Task* t = m.kernel().CreateTask("t");
  m.kernel().StartBurst(t, Microseconds(100), [&](Task* task) { m.kernel().Block(task); });
  m.kernel().Wake(t);
  m.RunFor(Milliseconds(1));
  const int first_cpu = t->last_cpu();
  m.kernel().StartBurst(t, Microseconds(100), [&](Task* task) { m.kernel().Block(task); });
  m.kernel().Wake(t);
  m.RunFor(Milliseconds(1));
  EXPECT_EQ(t->last_cpu(), first_cpu) << "idle prev CPU must be reused";
}

TEST(CfsPlacementTest, WakeStaysInLlcWhenCcxHasIdle) {
  // Rome-style: 2 CCXs of 2 cores each. A task that last ran on CCX 0 with a
  // busy prev CPU moves within CCX 0, not to the idle CCX 1.
  SimulationContext m({.topology = Topology::Make("t", 1, 4, 1, 2)});
  Task* t = m.kernel().CreateTask("t");
  m.kernel().StartBurst(t, Microseconds(100), [&](Task* task) { m.kernel().Block(task); });
  m.kernel().Wake(t);
  m.RunFor(Milliseconds(1));
  const int prev = t->last_cpu();
  ASSERT_GE(prev, 0);
  // Occupy prev with a pinned hog.
  Task* hog = SpawnHog(m.kernel(), "hog");
  m.kernel().SetAffinity(hog, CpuMask::Single(prev));
  m.RunFor(Milliseconds(2));
  m.kernel().StartBurst(t, Microseconds(100), [&](Task* task) { m.kernel().Block(task); });
  m.kernel().Wake(t);
  m.RunFor(Milliseconds(1));
  EXPECT_EQ(m.kernel().topology().cpu(t->last_cpu()).ccx,
            m.kernel().topology().cpu(prev).ccx);
  EXPECT_NE(t->last_cpu(), prev);
}

TEST(CfsPlacementTest, QueuesInLlcRatherThanCrossingIt) {
  // Both CPUs of CCX 0 are busy; CCX 1 idle. A waking task that last ran on
  // CCX 0 queues behind a CCX-0 CPU (select_idle_sibling does not scan other
  // LLCs); ms-scale balancing may move it later.
  SimulationContext m({.topology = Topology::Make("t", 1, 4, 1, 2)});
  Task* t = m.kernel().CreateTask("t");
  m.kernel().StartBurst(t, Microseconds(100), [&](Task* task) { m.kernel().Block(task); });
  m.kernel().Wake(t);
  m.RunFor(Milliseconds(1));
  const int ccx0 = m.kernel().topology().cpu(t->last_cpu()).ccx;
  const CpuMask ccx0_cpus = m.kernel().topology().CcxMask(ccx0);
  for (int cpu = ccx0_cpus.First(); cpu >= 0; cpu = ccx0_cpus.NextAfter(cpu)) {
    Task* hog = SpawnHog(m.kernel(), "hog" + std::to_string(cpu));
    m.kernel().SetAffinity(hog, CpuMask::Single(cpu));
  }
  m.RunFor(Milliseconds(5));
  m.kernel().StartBurst(t, Microseconds(100), [&](Task* task) { m.kernel().Block(task); });
  m.kernel().Wake(t);
  // Immediately after the wake (before any balancing), the task must be
  // queued on a CCX-0 runqueue.
  int queued_on = -1;
  for (int cpu = 0; cpu < 4; ++cpu) {
    if (m.cfs_class()->QueueDepth(cpu) > 0) {
      queued_on = cpu;
    }
  }
  ASSERT_GE(queued_on, 0);
  EXPECT_EQ(m.kernel().topology().cpu(queued_on).ccx, ccx0);
}

// --- Active balance --------------------------------------------------------------

TEST(CfsBalanceTest, ActiveBalanceRelievesDualBusyCore) {
  // SMT machine, 2 cores / 4 CPUs: two hogs pinned-then-released on one core
  // while the other core idles. Active balance must migrate one within a few
  // balance intervals.
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 2, 2)});
  Task* a = SpawnHog(m.kernel(), "a", nullptr, Milliseconds(1));
  Task* b = SpawnHog(m.kernel(), "b", nullptr, Milliseconds(1));
  const CpuMask core0 = m.kernel().topology().CoreMask(0);
  m.kernel().SetAffinity(a, core0);
  m.kernel().SetAffinity(b, core0);
  m.RunFor(Milliseconds(5));
  ASSERT_EQ(m.kernel().topology().cpu(a->cpu()).core, 0);
  ASSERT_EQ(m.kernel().topology().cpu(b->cpu()).core, 0);
  // Release the pins: active balance should split them across cores.
  m.kernel().SetAffinity(a, CpuMask::AllUpTo(4));
  m.kernel().SetAffinity(b, CpuMask::AllUpTo(4));
  m.RunFor(Milliseconds(50));
  EXPECT_NE(m.kernel().topology().cpu(a->cpu()).core,
            m.kernel().topology().cpu(b->cpu()).core)
      << "hogs should spread to separate physical cores";
}

// --- Depth index vs brute-force scans ---------------------------------------------------

// The index-free reference for the CFS queries: every answer is recomputed
// from the tasks' own queue state and the kernel's CpuState.
class CfsReference {
 public:
  CfsReference(Kernel& kernel, const SchedClass* cfs)
      : kernel_(kernel), cfs_(cfs), num_cpus_(kernel.topology().num_cpus()) {}

  void Snapshot() {
    queued_.assign(num_cpus_, {});
    for (Task* task : kernel_.tasks()) {
      if (task->sched_class() == cfs_ && task->cfs().queued) {
        queued_[task->cfs().rq_cpu].push_back(task);
      }
    }
  }
  int Depth(int cpu) const { return static_cast<int>(queued_[cpu].size()); }
  int MaxDepth() const {
    int max_depth = 0;
    for (int cpu = 0; cpu < num_cpus_; ++cpu) {
      max_depth = std::max(max_depth, Depth(cpu));
    }
    return max_depth;
  }

  // A scan of every runqueue in CPU order, keeping each strictly deeper busy
  // runqueue other than `cpu` that holds a task allowed on `cpu`.
  int PullSource(int cpu) const {
    int busiest = -1;
    int busiest_depth = 0;
    for (int other = 0; other < num_cpus_; ++other) {
      if (other == cpu || kernel_.CpuIdle(other) || Depth(other) <= busiest_depth) {
        continue;
      }
      for (const Task* task : queued_[other]) {
        if (task->affinity().IsSet(cpu)) {
          busiest = other;
          busiest_depth = Depth(other);
          break;
        }
      }
    }
    return busiest;
  }

  // SelectCpu's placement rule, on uncached CPU state and in separate passes.
  int SelectCpu(const Task* task) const {
    const Topology& topo = kernel_.topology();
    const CpuMask& affinity = task->affinity();
    auto usable = [&](int cpu) {
      return cpu >= 0 && cpu < num_cpus_ && affinity.IsSet(cpu) &&
             UncachedCpuAvailableFor(kernel_, cpu, cfs_) && Depth(cpu) == 0;
    };
    auto least_loaded = [&](auto&& eligible) {
      int best = -1;
      for (int cpu = 0; cpu < num_cpus_; ++cpu) {
        if (eligible(cpu) && (best < 0 || Load(cpu) < Load(best))) {
          best = cpu;
        }
      }
      return best;
    };
    const int prev = task->last_cpu();
    if (usable(prev)) {
      return prev;
    }
    if (prev >= 0) {
      const CpuInfo& info = topo.cpu(prev);
      if (usable(info.sibling)) {
        return info.sibling;
      }
      auto in_llc = [&](int cpu) {
        return topo.cpu(cpu).ccx == info.ccx && affinity.IsSet(cpu);
      };
      for (int cpu = 0; cpu < num_cpus_; ++cpu) {
        if (in_llc(cpu) && usable(cpu)) {
          return cpu;
        }
      }
      if (const int best = least_loaded(in_llc); best >= 0) {
        return best;
      }
      if (affinity.IsSet(prev)) {
        return prev;
      }
    }
    return least_loaded([&](int cpu) { return affinity.IsSet(cpu); });
  }

 private:
  int Load(int cpu) const { return Depth(cpu) + (kernel_.CpuIdle(cpu) ? 0 : 1); }

  Kernel& kernel_;
  const SchedClass* cfs_;
  const int num_cpus_;
  std::vector<std::vector<const Task*>> queued_;
};

TEST(CfsDepthIndexTest, MatchesBruteForceScansOnRome256) {
  // A seeded mix of wakeups, blocks, yields, nice changes, narrowed
  // affinities and class changes on 256 CPUs, with MicroQuanta hogs taking
  // CPUs away from CFS. After every step, the index answers (PullSource,
  // MaxQueueDepth) and SelectCpu must equal the brute-force scans.
  SimulationContext m({.topology = Topology::AmdRome256()});
  Kernel& kernel = m.kernel();
  CfsClass* cfs = m.cfs_class();
  const Topology& topo = kernel.topology();
  const int num_cpus = topo.num_cpus();
  Rng rng(20211026);

  std::function<void(Task*)> burst_done;
  auto wake = [&](Task* task) {
    if (task->state() != TaskState::kBlocked) {
      return;
    }
    if (!task->has_burst()) {
      kernel.StartBurst(task, Microseconds(rng.NextInRange(20, 400)), burst_done);
    }
    kernel.Wake(task);
  };
  burst_done = [&](Task* task) {
    if (rng.NextBernoulli(0.5)) {
      kernel.Block(task);
      m.loop().ScheduleAfter(Microseconds(rng.NextInRange(10, 200)),
                             [&wake, task] { wake(task); });
    } else {
      kernel.StartBurst(task, Microseconds(rng.NextInRange(20, 400)), burst_done);
    }
  };
  std::vector<Task*> tasks;
  for (int i = 0; i < 400; ++i) {
    Task* task = kernel.CreateTask("w" + std::to_string(i));
    kernel.StartBurst(task, Microseconds(rng.NextInRange(20, 400)), burst_done);
    kernel.Wake(task);
    tasks.push_back(task);
  }
  for (int i = 0; i < 8; ++i) {
    Task* hog = SpawnHog(kernel, "mq" + std::to_string(i), m.mq_class(), Microseconds(300));
    kernel.SetAffinity(hog, CpuMask::Single(static_cast<int>(rng.NextBounded(num_cpus))));
  }
  // Narrowed masks draw on a few hot CPUs, so pinned tasks pile up there.
  std::vector<int> hot;
  for (int i = 0; i < 16; ++i) {
    hot.push_back(static_cast<int>(rng.NextBounded(num_cpus)));
  }
  auto narrow_mask = [&](int cpu) {
    switch (rng.NextBounded(5)) {
      case 0:
        return CpuMask::Single(cpu);
      case 1:
        return topo.CoreMask(topo.cpu(cpu).core);
      case 2:
        return topo.CcxMask(topo.cpu(cpu).ccx);
      case 3: {
        CpuMask mask;
        for (int i = 0; i < 3; ++i) {
          mask.Set(hot[rng.NextBounded(hot.size())]);
        }
        return mask;
      }
      default:
        return CpuMask::AllUpTo(num_cpus);
    }
  };

  CfsReference reference(kernel, cfs);
  uint64_t steps_with_queues = 0;
  auto compare = [&](int step) {
    reference.Snapshot();
    ASSERT_EQ(cfs->MaxQueueDepth(), reference.MaxDepth()) << "step " << step;
    steps_with_queues += reference.MaxDepth() > 0;
    for (int cpu = 0; cpu < num_cpus; ++cpu) {
      ASSERT_EQ(cfs->QueueDepth(cpu), reference.Depth(cpu)) << "step " << step;
      ASSERT_EQ(cfs->PullSource(cpu), reference.PullSource(cpu))
          << "step " << step << " cpu " << cpu;
    }
    for (int i = 0; i < 16; ++i) {
      const Task* task = tasks[rng.NextBounded(tasks.size())];
      ASSERT_EQ(cfs->SelectCpu(task), reference.SelectCpu(task))
          << "step " << step << " task " << task->name();
    }
  };

  for (int step = 0; step < 1500; ++step) {
    Task* task = tasks[rng.NextBounded(tasks.size())];
    switch (rng.NextBounded(6)) {
      case 0:  // wakeups, early for timer-blocked tasks
        for (int i = 0; i < 8; ++i) {
          wake(tasks[rng.NextBounded(tasks.size())]);
        }
        break;
      case 1:  // block a running task mid-burst
        if (task->state() == TaskState::kRunning) {
          kernel.Block(task);
        }
        break;
      case 2:  // preemption by yield
        if (task->state() == TaskState::kRunning) {
          kernel.Yield(task);
        }
        break;
      case 3:
        kernel.SetNice(task, static_cast<int>(rng.NextInRange(-20, 19)));
        break;
      case 4:
        kernel.SetAffinity(task, narrow_mask(hot[rng.NextBounded(hot.size())]));
        break;
      default:  // class change, off CPUs only (on-CPU moves: kernel_test)
        if (task->state() == TaskState::kBlocked ||
            (task->state() == TaskState::kRunnable && task->inbound_cpu() < 0)) {
          kernel.SetSchedClass(task, task->sched_class() == cfs
                                         ? static_cast<SchedClass*>(m.mq_class())
                                         : cfs);
        }
        break;
    }
    compare(step);
    if (HasFatalFailure()) {
      return;
    }
    m.RunFor(Microseconds(rng.NextInRange(0, 60)));
    compare(step);
    if (HasFatalFailure()) {
      return;
    }
  }
  // The mix must have built queues to compare against, not idled.
  EXPECT_GT(steps_with_queues, 1000u);
  EXPECT_GT(cfs->steals(), 0u);
}

// --- Virtual clock stability -----------------------------------------------------------

TEST(CfsClockTest, VruntimeStaysBoundedUnderChurn) {
  // The regression behind Fig 6c: mixed extreme nice values with heavy
  // blocking/waking churn and migrations must not blow up vruntime.
  SimulationContext m({.topology = Topology::Make("t", 1, 4, 1, 4)});
  Task* batch = SpawnHog(m.kernel(), "batch", nullptr, Microseconds(500));
  m.kernel().SetNice(batch, 19);
  std::vector<Task*> workers;
  for (int i = 0; i < 8; ++i) {
    Task* w = m.kernel().CreateTask("w" + std::to_string(i));
    m.kernel().SetNice(w, -20);
    auto loop = std::make_shared<std::function<void(Task*)>>();
    *loop = [&m, loop](Task* task) {
      m.kernel().Block(task);
      m.loop().ScheduleAfter(Microseconds(20), [&m, task, loop] {
        m.kernel().StartBurst(task, Microseconds(30), *loop);
        m.kernel().Wake(task);
      });
    };
    m.kernel().StartBurst(w, Microseconds(30), *loop);
    m.kernel().Wake(w);
    workers.push_back(w);
  }
  m.RunFor(Seconds(1));
  for (Task* w : workers) {
    EXPECT_LT(w->cfs().vruntime, Seconds(3600)) << w->name() << " vruntime exploded";
    EXPECT_GT(w->total_runtime(), Milliseconds(10)) << w->name() << " starved";
  }
  // The nice-19 hog must get almost nothing while nice -20 workers are active.
  EXPECT_LT(batch->total_runtime(), Seconds(4));
}

TEST(CfsClockTest, SleeperCreditBoundsWakeupLatency) {
  // A task that slept a long time must preempt a long-running hog promptly
  // (sleeper credit), not wait out the hog's accumulated lead.
  SimulationContext m({.topology = Topology::Make("t", 1, 1, 1, 1)});
  SpawnHog(m.kernel(), "hog", nullptr, Milliseconds(1));
  m.RunFor(Seconds(1));
  Task* sleeper = m.kernel().CreateTask("sleeper");
  Time done = -1;
  m.kernel().StartBurst(sleeper, Microseconds(100), [&](Task* t) {
    done = m.now();
    m.kernel().Exit(t);
  });
  const Time woke = m.now();
  m.kernel().Wake(sleeper);
  m.RunFor(Milliseconds(50));
  ASSERT_GE(done, 0);
  EXPECT_LT(done - woke, Milliseconds(2));
}

}  // namespace
}  // namespace gs
