// Tests for the simulated kernel: task lifecycle, CFS behaviour, SMT speed
// factors, MicroQuanta throttling, accounting exactness, determinism.
#include <gtest/gtest.h>

#include "src/agent/agent_process.h"
#include "src/policies/per_cpu_fifo.h"
#include "src/sim/simulation.h"
#include "src/verify/invariants.h"
#include "tests/test_util.h"

namespace gs {
namespace {

Topology SmallTopo(int cores, int smt = 1) {
  return Topology::Make("test", 1, cores, smt, cores);
}

TEST(KernelTest, OneShotTaskRunsAndExits) {
  SimulationContext m({.topology = SmallTopo(1)});
  Task* task = SpawnOneShot(m.kernel(), "t", Microseconds(10));
  m.RunFor(Milliseconds(1));
  EXPECT_EQ(task->state(), TaskState::kDead);
  EXPECT_EQ(task->total_runtime(), Microseconds(10));
}

TEST(KernelTest, ContextSwitchCostDelaysCompletion) {
  SimulationContext m({.topology = SmallTopo(1)});
  Time done_at = 0;
  Task* task = m.kernel().CreateTask("t");
  m.kernel().StartBurst(task, Microseconds(10), [&](Task* t) {
    done_at = m.now();
    m.kernel().Exit(t);
  });
  m.kernel().Wake(task);
  m.RunFor(Milliseconds(1));
  // Wake -> resched event (0) -> context switch (599 ns) -> 10 us burst.
  EXPECT_EQ(done_at, m.kernel().cost().context_switch + Microseconds(10));
}

TEST(KernelTest, TwoHogsShareOneCpuFairly) {
  SimulationContext m({.topology = SmallTopo(1)});
  Task* a = SpawnHog(m.kernel(), "a");
  Task* b = SpawnHog(m.kernel(), "b");
  m.RunFor(Milliseconds(200));
  const double ratio =
      static_cast<double>(a->total_runtime()) / static_cast<double>(b->total_runtime());
  EXPECT_NEAR(ratio, 1.0, 0.15);
  // Together they consumed nearly all CPU time.
  EXPECT_GT(a->total_runtime() + b->total_runtime(), Milliseconds(190));
}

TEST(KernelTest, NiceWeightsSkewCpuShare) {
  SimulationContext m({.topology = SmallTopo(1)});
  Task* fav = m.kernel().CreateTask("fav");
  m.kernel().SetNice(fav, -5);
  Task* meh = m.kernel().CreateTask("meh");
  m.kernel().SetNice(meh, 5);
  for (Task* t : {fav, meh}) {
    auto loop = std::make_shared<std::function<void(Task*)>>();
    *loop = [&m, loop](Task* task) { m.kernel().StartBurst(task, Milliseconds(10), *loop); };
    m.kernel().StartBurst(t, Milliseconds(10), *loop);
    m.kernel().Wake(t);
  }
  m.RunFor(Milliseconds(500));
  // weight(-5)/weight(5) = 3121/335 ~ 9.3.
  const double ratio =
      static_cast<double>(fav->total_runtime()) / static_cast<double>(meh->total_runtime());
  EXPECT_GT(ratio, 5.0);
  EXPECT_LT(ratio, 14.0);
}

TEST(KernelTest, WakePlacementSpreadsAcrossIdleCpus) {
  SimulationContext m({.topology = SmallTopo(4)});
  std::vector<Task*> hogs;
  for (int i = 0; i < 4; ++i) {
    hogs.push_back(SpawnHog(m.kernel(), "h" + std::to_string(i)));
  }
  m.RunFor(Milliseconds(50));
  // All four should run in parallel: each gets ~full time.
  for (Task* hog : hogs) {
    EXPECT_GT(hog->total_runtime(), Milliseconds(45)) << hog->name();
  }
}

TEST(KernelTest, IdleBalancePullsQueuedWork) {
  SimulationContext m({.topology = SmallTopo(2)});
  // Pin three hogs to CPU 0 initially via affinity, then open the mask: the
  // idle CPU 1 should pull.
  std::vector<Task*> hogs;
  for (int i = 0; i < 3; ++i) {
    Task* hog = SpawnHog(m.kernel(), "h" + std::to_string(i), nullptr, Milliseconds(1));
    m.kernel().SetAffinity(hog, CpuMask::Single(0));
    hogs.push_back(hog);
  }
  m.RunFor(Milliseconds(5));
  for (Task* hog : hogs) {
    m.kernel().SetAffinity(hog, CpuMask::AllUpTo(2));
  }
  m.RunFor(Milliseconds(100));
  Duration total = 0;
  for (Task* hog : hogs) {
    total += hog->total_runtime();
  }
  // With both CPUs used, aggregate runtime must clearly exceed one CPU's
  // capacity over the window.
  EXPECT_GT(total, Milliseconds(160));
  EXPECT_GT(m.cfs_class()->steals(), 0u);
}

TEST(KernelTest, BlockedTaskResumesOnWake) {
  SimulationContext m({.topology = SmallTopo(1)});
  Task* task = m.kernel().CreateTask("sleeper");
  int phases = 0;
  m.kernel().StartBurst(task, Microseconds(5), [&](Task* t) {
    ++phases;
    m.kernel().Block(t);
  });
  m.kernel().Wake(task);
  m.RunFor(Milliseconds(1));
  EXPECT_EQ(phases, 1);
  EXPECT_EQ(task->state(), TaskState::kBlocked);

  m.kernel().StartBurst(task, Microseconds(5), [&](Task* t) {
    ++phases;
    m.kernel().Exit(t);
  });
  m.kernel().Wake(task);
  m.RunFor(Milliseconds(1));
  EXPECT_EQ(phases, 2);
  EXPECT_EQ(task->state(), TaskState::kDead);
  EXPECT_EQ(task->total_runtime(), Microseconds(10));
}

TEST(KernelTest, SmtContentionSlowsBothSiblings) {
  SimulationContext m({.topology = SmallTopo(1, 2)});  // one core, two hyperthreads
  Time a_done = 0, b_done = 0;
  Task* a = m.kernel().CreateTask("a");
  Task* b = m.kernel().CreateTask("b");
  m.kernel().StartBurst(a, Microseconds(100), [&](Task* t) {
    a_done = m.now();
    m.kernel().Exit(t);
  });
  m.kernel().StartBurst(b, Microseconds(100), [&](Task* t) {
    b_done = m.now();
    m.kernel().Exit(t);
  });
  m.kernel().Wake(a);
  m.kernel().Wake(b);
  m.RunFor(Milliseconds(2));
  // Both run concurrently at the contention factor (0.7) most of the time:
  // expected completion ~ 100us / 0.7 = 143us (plus switch costs).
  EXPECT_GT(a_done, Microseconds(120));
  EXPECT_LT(a_done, Microseconds(160));
  EXPECT_GT(b_done, Microseconds(120));
  EXPECT_LT(b_done, Microseconds(160));
}

TEST(KernelTest, SmtSpeedRecoversWhenSiblingIdles) {
  SimulationContext m({.topology = SmallTopo(1, 2)});
  Time a_done = 0;
  Task* a = m.kernel().CreateTask("a");
  m.kernel().StartBurst(a, Microseconds(100), [&](Task* t) {
    a_done = m.now();
    m.kernel().Exit(t);
  });
  // Short sibling: 10us of contention, then `a` runs at full speed.
  Task* b = SpawnOneShot(m.kernel(), "b", Microseconds(10));
  (void)b;
  m.kernel().Wake(a);
  m.RunFor(Milliseconds(2));
  // a progressed ~10us*0.7=7us during contention, then ~93us at full speed:
  // total ~ 107us; well below the fully-contended 143us.
  EXPECT_LT(a_done, Microseconds(125));
  EXPECT_GT(a_done, Microseconds(100));
}

TEST(KernelTest, MicroQuantaThrottlingLeavesBlackouts) {
  SimulationContext m({.topology = SmallTopo(1)});
  Task* mq = SpawnHog(m.kernel(), "mq", m.mq_class(), Milliseconds(100));
  Task* cfs = SpawnHog(m.kernel(), "cfs", nullptr, Milliseconds(100));
  m.RunFor(Milliseconds(100));
  // MicroQuanta gets ~0.9 of every 1ms period, CFS the remaining ~0.1.
  EXPECT_NEAR(static_cast<double>(mq->total_runtime()) / Milliseconds(100), 0.9, 0.05);
  EXPECT_NEAR(static_cast<double>(cfs->total_runtime()) / Milliseconds(100), 0.1, 0.05);
  EXPECT_GT(m.mq_class()->throttle_count(), 50u);
}

TEST(KernelTest, MicroQuantaPreemptsCfsImmediately) {
  SimulationContext m({.topology = SmallTopo(1)});
  SpawnHog(m.kernel(), "cfs");
  m.RunFor(Milliseconds(5));
  Time woke = m.now();
  Time ran_at = -1;
  Task* mq = m.kernel().CreateTask("mq", m.mq_class());
  m.kernel().StartBurst(mq, Microseconds(50), [&](Task* t) {
    ran_at = m.now();
    m.kernel().Exit(t);
  });
  m.kernel().Wake(mq);
  m.RunFor(Milliseconds(5));
  ASSERT_GE(ran_at, 0);
  // Preempted CFS promptly: wake -> resched -> switch -> 50us.
  EXPECT_LT(ran_at - woke, Microseconds(60));
}

TEST(KernelTest, AffinityPinsTask) {
  SimulationContext m({.topology = SmallTopo(4)});
  Task* pinned = SpawnHog(m.kernel(), "pinned", nullptr, Microseconds(100));
  m.kernel().SetAffinity(pinned, CpuMask::Single(2));
  m.RunFor(Milliseconds(20));
  EXPECT_EQ(pinned->state(), TaskState::kRunning);
  EXPECT_EQ(pinned->cpu(), 2);
  EXPECT_GT(m.kernel().CpuBusyTime(2), Milliseconds(19));
}

TEST(KernelTest, PreemptionPreservesProgressAccounting) {
  SimulationContext m({.topology = SmallTopo(1)});
  Time done = 0;
  Task* victim = m.kernel().CreateTask("victim");
  m.kernel().StartBurst(victim, Microseconds(100), [&](Task* t) {
    done = m.now();
    m.kernel().Exit(t);
  });
  m.kernel().Wake(victim);
  // At t=50us, a MicroQuanta task arrives and preempts for 20us.
  m.loop().ScheduleAt(Microseconds(50), [&] {
    SpawnOneShot(m.kernel(), "intruder", Microseconds(20), m.mq_class());
  });
  m.RunFor(Milliseconds(2));
  EXPECT_EQ(victim->total_runtime(), Microseconds(100))
      << "burst demand must be conserved across preemption";
  // Completion delayed by the intruder's 20us + switch overheads.
  EXPECT_GT(done, Microseconds(120));
  EXPECT_LT(done, Microseconds(125));
}

TEST(KernelTest, DeterministicAcrossRuns) {
  auto run = [] {
    SimulationContext m({.topology = SmallTopo(4, 2)});
    std::vector<Task*> tasks;
    for (int i = 0; i < 16; ++i) {
      tasks.push_back(SpawnHog(m.kernel(), "h" + std::to_string(i), nullptr,
                               Microseconds(100 + 13 * i)));
    }
    m.RunFor(Milliseconds(50));
    std::vector<Duration> runtimes;
    for (Task* t : tasks) {
      runtimes.push_back(t->total_runtime());
    }
    runtimes.push_back(static_cast<Duration>(m.kernel().total_context_switches()));
    return runtimes;
  };
  EXPECT_EQ(run(), run());
}

TEST(KernelTest, KillRunnableAndBlockedTasks) {
  SimulationContext m({.topology = SmallTopo(1)});
  Task* hog = SpawnHog(m.kernel(), "hog");
  Task* queued = SpawnHog(m.kernel(), "queued");
  m.RunFor(Milliseconds(1));
  // One runs, one queued; kill both.
  m.kernel().Kill(hog);
  m.kernel().Kill(queued);
  m.RunFor(Milliseconds(5));
  EXPECT_EQ(hog->state(), TaskState::kDead);
  EXPECT_EQ(queued->state(), TaskState::kDead);
  EXPECT_TRUE(m.kernel().CpuIdle(0));
}

TEST(KernelTest, BlockRewakeInDeschedWindowIsFreshPlacement) {
  // ttwu wake_pending regression: a task that blocks and is re-woken before
  // its deschedule completes is re-picked as next == old, but it went through
  // schedule() — it must be treated as freshly placed, so its on-scheduled
  // hook fires again. (The broken resume path silently swallowed the hook,
  // which wedged a blocked-then-instantly-rewoken agent forever.)
  SimulationContext m({.topology = SmallTopo(1)});
  Task* task = m.kernel().CreateTask("t");
  int scheduled = 0;
  m.kernel().SetOnScheduled(task, [&](Task*) { ++scheduled; });
  m.kernel().StartBurst(task, Microseconds(10), [&m](Task* t) {
    // Block, then wake while still on-CPU (the deschedule resched event is
    // pending): Wake() must defer via wake_pending, exactly the ttwu-on_cpu
    // race, and the rewake lands in the same event-loop batch.
    m.kernel().Block(t);
    m.kernel().StartBurst(t, Microseconds(10),
                          [&m](Task* t2) { m.kernel().Exit(t2); });
    m.kernel().Wake(t);
  });
  m.kernel().Wake(task);
  m.RunFor(Milliseconds(1));
  EXPECT_EQ(task->state(), TaskState::kDead);
  EXPECT_EQ(task->total_runtime(), Microseconds(20));
  EXPECT_EQ(scheduled, 2) << "re-pick after block+rewake must re-run the "
                             "on-scheduled hook";
}

TEST(KernelTest, ZeroLengthBurstSurvivesSameInstantPreemption) {
  // A zero-length burst arms a zero-delay completion event; the redundant
  // resched queued by the rewake's wakeup-preemption check fires first (same
  // timestamp, earlier sequence), deschedules the task, and cancels that
  // completion. Re-placement must re-arm it — has_burst() is false for a
  // zero-length burst, so without has_pending_burst_done() the completion
  // callback is lost and the task wedges forever.
  SimulationContext m({.topology = SmallTopo(1)});
  Task* task = m.kernel().CreateTask("t");
  m.kernel().StartBurst(task, Microseconds(10), [&m](Task* t) {
    m.kernel().Block(t);
    m.kernel().StartBurst(t, Duration{0},
                          [&m](Task* t2) { m.kernel().Exit(t2); });
    m.kernel().Wake(t);
  });
  m.kernel().Wake(task);
  m.RunFor(Milliseconds(1));
  EXPECT_EQ(task->state(), TaskState::kDead)
      << "zero-length burst completion was lost across the preemption";
}

TEST(KernelTest, SetSchedClassRefreshesCachedOccupant) {
  // A class change of a task that occupies a CPU, running or mid-switch, is
  // the one occupant change that writes no CpuState field; the kernel's
  // cached occupant priority must follow it all the same.
  SimulationContext m({.topology = SmallTopo(2)});
  Kernel& kernel = m.kernel();
  InvariantChecker checker(&kernel);
  Task* running = SpawnHog(kernel, "running");
  kernel.SetAffinity(running, CpuMask::Single(0));
  m.RunFor(Milliseconds(1));
  ASSERT_EQ(kernel.current(0), running);
  Task* inbound = SpawnHog(kernel, "inbound");
  kernel.SetAffinity(inbound, CpuMask::Single(1));
  m.RunFor(Nanoseconds(1));  // the pick ran; the context switch is in flight
  ASSERT_TRUE(kernel.cpu_state(1).switching);
  ASSERT_EQ(kernel.cpu_state(1).switching_to, inbound);

  for (SchedClass* cls : {static_cast<SchedClass*>(m.mq_class()), kernel.default_class()}) {
    kernel.SetSchedClass(running, cls);
    kernel.SetSchedClass(inbound, cls);
    for (int cpu = 0; cpu < 2; ++cpu) {
      for (int i = 0; i < kernel.num_classes(); ++i) {
        const SchedClass* asker = kernel.sched_class_at(i);
        EXPECT_EQ(kernel.CpuAvailableFor(cpu, asker),
                  UncachedCpuAvailableFor(kernel, cpu, asker))
            << "cpu " << cpu << " asked by " << asker->name() << " after moving to "
            << cls->name();
      }
    }
    checker.CheckNow();
    EXPECT_TRUE(checker.ok()) << checker.Report();
  }
}

TEST(KernelTest, SetSchedClassOfMidSwitchTaskLetsTheSwitchRunIt) {
  // A task being switched in is in no runqueue; the new class must adopt it
  // like a running task instead of queueing a second copy of it.
  SimulationContext m({.topology = SmallTopo(2)});
  Kernel& kernel = m.kernel();
  InvariantChecker checker(&kernel);
  checker.Start();
  Task* hog = kernel.CreateTask("hog");
  kernel.SetAffinity(hog, CpuMask::Single(1));
  kernel.StartBurst(hog, Milliseconds(50), [&kernel](Task* t) { kernel.Exit(t); });
  kernel.Wake(hog);
  m.RunFor(Nanoseconds(1));  // the pick ran; the context switch is in flight
  ASSERT_EQ(kernel.cpu_state(1).switching_to, hog);
  kernel.SetSchedClass(hog, m.mq_class());
  m.RunFor(Milliseconds(100));
  EXPECT_EQ(hog->state(), TaskState::kDead);
  EXPECT_EQ(hog->total_runtime(), Milliseconds(50));
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

TEST(KernelTest, EnclaveDestroyMovesMidSwitchGhostThreadToCfs) {
  // Destroying an enclave moves every managed thread back to CFS, including
  // one the agent's commit is switching in right now.
  SimulationContext m({.topology = SmallTopo(2)});
  Kernel& kernel = m.kernel();
  InvariantChecker checker(&kernel);
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(2));
  checker.Watch(enclave.get());
  checker.Start();
  auto process =
      m.CreateAgentProcess(enclave.get(), std::make_unique<PerCpuFifoPolicy>());
  process->Start();
  Task* worker = kernel.CreateTask("worker");
  enclave->AddTask(worker);
  kernel.StartBurst(worker, Milliseconds(5), [&kernel](Task* t) { kernel.Exit(t); });
  kernel.Wake(worker);
  while (worker->inbound_cpu() < 0) {
    ASSERT_LT(m.now(), Milliseconds(1)) << "the agent never switched the worker in";
    ASSERT_TRUE(m.loop().RunOne());
  }
  ASSERT_EQ(worker->sched_class(), m.ghost_class());
  enclave->Destroy();
  EXPECT_EQ(worker->sched_class(), kernel.default_class());
  EXPECT_FALSE(worker->cfs().queued) << "queued in CFS while the switch runs it";
  m.RunFor(Milliseconds(20));
  EXPECT_EQ(worker->state(), TaskState::kDead);
  EXPECT_EQ(worker->total_runtime(), Milliseconds(5));
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

TEST(KernelTest, BusyTimeAccounting) {
  SimulationContext m({.topology = SmallTopo(2)});
  SpawnOneShot(m.kernel(), "t", Milliseconds(3));
  m.RunFor(Milliseconds(10));
  const Duration busy = m.kernel().CpuBusyTime(0) + m.kernel().CpuBusyTime(1);
  EXPECT_GE(busy, Milliseconds(3));
  EXPECT_LT(busy, Milliseconds(3) + Microseconds(5));
}

}  // namespace
}  // namespace gs
