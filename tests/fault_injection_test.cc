// End-to-end fault-injection tests: every FaultKind is exercised against a
// live machine with the invariant checker attached, asserting both the
// paper's recovery story (§3.1, §3.4) and that no kernel/ghOSt consistency
// property is violated along the way.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/agent/agent_process.h"
#include "src/policies/centralized_fifo.h"
#include "src/policies/per_cpu_fifo.h"
#include "src/sim/batch_runner.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulation.h"
#include "src/sim/simulation.h"
#include "src/verify/invariants.h"
#include "tests/test_util.h"

namespace gs {
namespace {

Topology SmallTopo(int cores) { return Topology::Make("test", 1, cores, 1, cores); }

class FaultInjectionTest : public ::testing::Test {
 protected:
  void Build(int cores, std::unique_ptr<Policy> policy,
             Enclave::Config config = Enclave::Config(),
             FaultInjector::Config faults = FaultInjector::Config(),
             uint64_t seed = 42) {
    machine_ = std::make_unique<SimulationContext>(
        SimulationContext::Options{.topology = SmallTopo(cores)});
    injector_ = std::make_unique<FaultInjector>(&machine_->loop(), &machine_->kernel().trace(),
                                                seed, faults);
    machine_->kernel().set_fault_injector(injector_.get());
    enclave_ = machine_->CreateEnclave(CpuMask::AllUpTo(cores), config);
    process_ = std::make_unique<AgentProcess>(&machine_->kernel(), machine_->ghost_class(),
                                              enclave_.get(), std::move(policy));
    process_->Start();
    checker_ = std::make_unique<InvariantChecker>(&machine_->kernel());
    checker_->Watch(enclave_.get());
    checker_->Start();
  }

  // A worker performing `n` bursts of `burst`, blocking `gap` between them.
  Task* Worker(const std::string& name, Duration burst, int n, Duration gap = 0) {
    Task* task = machine_->kernel().CreateTask(name);
    enclave_->AddTask(task);
    auto remaining = std::make_shared<int>(n);
    auto loop = std::make_shared<std::function<void(Task*)>>();
    Kernel* kernel = &machine_->kernel();
    EventLoop* loop_ptr = &machine_->loop();
    *loop = [kernel, loop_ptr, remaining, burst, gap, loop](Task* t) {
      if (--*remaining <= 0) {
        kernel->Exit(t);
        return;
      }
      if (gap > 0) {
        kernel->Block(t);
        loop_ptr->ScheduleAfter(gap, [kernel, t, burst, loop] {
          kernel->StartBurst(t, burst, *loop);
          kernel->Wake(t);
        });
      } else {
        kernel->StartBurst(t, burst, *loop);
      }
    };
    kernel->StartBurst(task, burst, *loop);
    kernel->Wake(task);
    return task;
  }

  void ExpectAllDone(const std::vector<Task*>& tasks, Duration burst, int n) {
    for (Task* task : tasks) {
      EXPECT_EQ(task->state(), TaskState::kDead) << task->name();
      EXPECT_EQ(task->total_runtime(), burst * n) << task->name() << " lost work";
    }
  }

  std::unique_ptr<SimulationContext> machine_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<Enclave> enclave_;
  std::unique_ptr<AgentProcess> process_;
  std::unique_ptr<InvariantChecker> checker_;
};

// §3.4: a wedged agent never schedules; the watchdog destroys the enclave
// within its bound and every thread finishes under CFS.
TEST_F(FaultInjectionTest, AgentStallTriggersWatchdogAndCfsFallback) {
  Enclave::Config config;
  config.watchdog_timeout = Milliseconds(20);
  config.watchdog_period = Milliseconds(5);
  Build(2, std::make_unique<PerCpuFifoPolicy>(), config);
  std::vector<Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(Worker("w" + std::to_string(i), Microseconds(500), 20, Microseconds(100)));
  }
  machine_->RunFor(Milliseconds(2));
  injector_->After(0, FaultKind::kAgentStall, [this] { process_->SetStalled(true); });
  machine_->RunFor(Milliseconds(300));

  EXPECT_EQ(injector_->injected(FaultKind::kAgentStall), 1u);
  EXPECT_TRUE(enclave_->destroyed());
  ExpectAllDone(tasks, Microseconds(500), 20);
  for (Task* task : tasks) {
    EXPECT_EQ(task->sched_class(), machine_->kernel().default_class());
  }
  EXPECT_TRUE(checker_->ok()) << checker_->Report();
}

// §3.4: the agent process dies; a replacement attaches, restores policy state
// from the kernel's TaskDump, and resumes with zero lost work.
TEST_F(FaultInjectionTest, AgentCrashReplacementResumesFromDump) {
  Build(2, std::make_unique<PerCpuFifoPolicy>());
  std::vector<Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(Worker("w" + std::to_string(i), Microseconds(500), 20, Microseconds(100)));
  }
  machine_->RunFor(Milliseconds(2));

  std::unique_ptr<AgentProcess> replacement;
  injector_->After(Milliseconds(1), FaultKind::kAgentCrash, [this] { process_->Crash(); });
  machine_->loop().ScheduleAfter(Milliseconds(3), [this, &replacement] {
    replacement = std::make_unique<AgentProcess>(
        &machine_->kernel(), machine_->ghost_class(), enclave_.get(),
        std::make_unique<CentralizedFifoPolicy>());
    replacement->Start();
  });
  machine_->RunFor(Milliseconds(300));

  EXPECT_EQ(injector_->injected(FaultKind::kAgentCrash), 1u);
  EXPECT_FALSE(enclave_->destroyed());
  ExpectAllDone(tasks, Microseconds(500), 20);
  EXPECT_TRUE(checker_->ok()) << checker_->Report();
}

// §3.1/§3.4: overflow pressure drops messages; the agent notices (overflow
// latch), flushes all queues and resyncs from the dump — recovery beats the
// watchdog, so the enclave survives and no work is lost.
TEST_F(FaultInjectionTest, QueueOverflowPressureResyncsWithoutTeardown) {
  Enclave::Config config;
  config.watchdog_timeout = Milliseconds(50);
  FaultInjector::Config faults;
  faults.msg_drop_probability = 0.3;
  faults.window_start = Milliseconds(2);
  faults.window_end = Milliseconds(8);
  Build(2, std::make_unique<CentralizedFifoPolicy>(), config, faults);
  std::vector<Task*> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(Worker("w" + std::to_string(i), Microseconds(200), 40, Microseconds(50)));
  }
  machine_->RunFor(Milliseconds(300));

  EXPECT_GT(injector_->injected(FaultKind::kQueueOverflow), 0u);
  EXPECT_GT(enclave_->messages_dropped(), 0u);
  EXPECT_GE(process_->resyncs(), 1u);
  EXPECT_FALSE(enclave_->destroyed());
  ExpectAllDone(tasks, Microseconds(200), 40);
  EXPECT_TRUE(checker_->ok()) << checker_->Report();
}

// Late IPIs slow commits down but break nothing.
TEST_F(FaultInjectionTest, DelayedIpisPreserveInvariants) {
  FaultInjector::Config faults;
  faults.ipi_delay_probability = 0.5;
  Build(4, std::make_unique<CentralizedFifoPolicy>(), Enclave::Config(), faults);
  std::vector<Task*> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(Worker("w" + std::to_string(i), Microseconds(300), 30, Microseconds(100)));
  }
  machine_->RunFor(Milliseconds(300));

  EXPECT_GT(injector_->injected(FaultKind::kIpiDelay), 0u);
  ExpectAllDone(tasks, Microseconds(300), 30);
  EXPECT_TRUE(checker_->ok()) << checker_->Report();
}

// A "lost" IPI is redelivered after the resend timeout: forward progress is
// preserved, just slower (a silently dropped latch-enable would wedge the
// target CPU forever).
TEST_F(FaultInjectionTest, DroppedIpisAreRedelivered) {
  FaultInjector::Config faults;
  faults.ipi_drop_probability = 0.4;
  Build(4, std::make_unique<CentralizedFifoPolicy>(), Enclave::Config(), faults);
  std::vector<Task*> tasks;
  for (int i = 0; i < 8; ++i) {
    tasks.push_back(Worker("w" + std::to_string(i), Microseconds(300), 30, Microseconds(100)));
  }
  machine_->RunFor(Milliseconds(400));

  EXPECT_GT(injector_->injected(FaultKind::kIpiDrop), 0u);
  ExpectAllDone(tasks, Microseconds(300), 30);
  EXPECT_TRUE(checker_->ok()) << checker_->Report();
}

// §3.2: an ESTALE storm fails transactions in bulk; the policy retries and
// the workload still completes.
TEST_F(FaultInjectionTest, EStaleStormStillMakesProgress) {
  FaultInjector::Config faults;
  faults.estale_probability = 0.3;
  Build(2, std::make_unique<PerCpuFifoPolicy>(), Enclave::Config(), faults);
  std::vector<Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(Worker("w" + std::to_string(i), Microseconds(300), 30, Microseconds(100)));
  }
  machine_->RunFor(Milliseconds(400));

  EXPECT_GT(injector_->injected(FaultKind::kEStale), 0u);
  EXPECT_GT(enclave_->txns_failed(), 0u);
  ExpectAllDone(tasks, Microseconds(300), 30);
  EXPECT_TRUE(checker_->ok()) << checker_->Report();
}

// §3.4: destroying the enclave mid-load moves every thread back to CFS,
// which finishes the work.
TEST_F(FaultInjectionTest, EnclaveDestroyMidLoadFallsBackToCfs) {
  Build(2, std::make_unique<PerCpuFifoPolicy>());
  std::vector<Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(Worker("w" + std::to_string(i), Microseconds(500), 20, Microseconds(100)));
  }
  machine_->RunFor(Milliseconds(2));
  injector_->After(Milliseconds(1), FaultKind::kEnclaveDestroy, [this] { enclave_->Destroy(); });
  machine_->RunFor(Milliseconds(300));

  EXPECT_EQ(injector_->injected(FaultKind::kEnclaveDestroy), 1u);
  EXPECT_TRUE(enclave_->destroyed());
  ExpectAllDone(tasks, Microseconds(500), 20);
  for (Task* task : tasks) {
    EXPECT_EQ(task->sched_class(), machine_->kernel().default_class());
  }
  EXPECT_TRUE(checker_->ok()) << checker_->Report();
}

// A thread yanked out of the enclave mid-run continues under CFS; re-adding
// it later restarts its ghOSt life with a fresh sequence number (the
// checker's generation tracking must not flag the tseq restart).
TEST_F(FaultInjectionTest, RemoveTaskMidRunAndReAdd) {
  Build(2, std::make_unique<PerCpuFifoPolicy>());
  std::vector<Task*> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.push_back(Worker("w" + std::to_string(i), Microseconds(500), 30, Microseconds(100)));
  }
  Task* victim = tasks[0];
  machine_->RunFor(Milliseconds(2));
  injector_->After(0, FaultKind::kRemoveTask, [this, victim] {
    if (victim->state() != TaskState::kDead) {
      enclave_->RemoveTask(victim);
    }
  });
  machine_->loop().ScheduleAfter(Milliseconds(2), [this, victim] {
    if (victim->state() != TaskState::kDead && victim->ghost_state() == nullptr) {
      enclave_->AddTask(victim);
    }
  });
  machine_->RunFor(Milliseconds(400));

  EXPECT_EQ(injector_->injected(FaultKind::kRemoveTask), 1u);
  ExpectAllDone(tasks, Microseconds(500), 30);
  EXPECT_TRUE(checker_->ok()) << checker_->Report();
}

// The chaos battery as a parallel sweep: a matrix of fault mixes x seeds,
// each run inside its own SimulationContext, fanned across a BatchRunner
// pool. Every run must hold the invariants and lose no work, and because a
// context shares nothing with its siblings, the parallel sweep must reach
// exactly the per-run outcomes of a serial one.
TEST(ChaosBatterySweep, ParallelMatrixMatchesSerialAndHoldsInvariants) {
  struct Outcome {
    uint64_t injected = 0;
    uint64_t txns_committed = 0;
    uint64_t messages_posted = 0;
    int64_t total_runtime = 0;
    bool all_done = false;
    bool invariants_ok = false;

    bool operator==(const Outcome& o) const {
      return injected == o.injected && txns_committed == o.txns_committed &&
             messages_posted == o.messages_posted &&
             total_runtime == o.total_runtime && all_done == o.all_done &&
             invariants_ok == o.invariants_ok;
    }
  };

  constexpr int kSeeds = 3;
  constexpr int kConfigs = 3;
  constexpr int kRuns = kSeeds * kConfigs;

  auto run_one = [](int index) -> Outcome {
    FaultInjector::Config faults;
    // IPI faults need remote commits, so that row runs the centralized
    // policy; the others exercise the per-CPU fast path.
    bool centralized = false;
    switch (index / kSeeds) {
      case 0:
        faults.estale_probability = 0.3;
        break;
      case 1:
        faults.ipi_delay_probability = 0.4;
        faults.ipi_drop_probability = 0.2;
        centralized = true;
        break;
      default:
        faults.msg_drop_probability = 0.2;
        faults.window_start = Milliseconds(2);
        faults.window_end = Milliseconds(8);
        break;
    }
    SimulationContext::Options options;
    options.topology = SmallTopo(2);
    options.seed = 42 + static_cast<uint64_t>(index % kSeeds);
    options.faults = faults;
    SimulationContext sim(std::move(options));

    auto enclave = sim.CreateEnclave(CpuMask::AllUpTo(2));
    std::unique_ptr<Policy> policy;
    if (centralized) {
      policy = std::make_unique<CentralizedFifoPolicy>();
    } else {
      policy = std::make_unique<PerCpuFifoPolicy>();
    }
    auto process = sim.CreateAgentProcess(enclave.get(), std::move(policy));
    process->Start();
    InvariantChecker checker(&sim.kernel());
    checker.Watch(enclave.get());
    checker.Start();

    constexpr Duration kBurst = Microseconds(300);
    constexpr int kBursts = 20;
    std::vector<Task*> tasks;
    for (int i = 0; i < 4; ++i) {
      Task* task = sim.kernel().CreateTask("w" + std::to_string(i));
      enclave->AddTask(task);
      auto remaining = std::make_shared<int>(kBursts);
      auto loop = std::make_shared<std::function<void(Task*)>>();
      Kernel* kernel = &sim.kernel();
      EventLoop* loop_ptr = &sim.loop();
      *loop = [kernel, loop_ptr, remaining, loop](Task* t) {
        if (--*remaining <= 0) {
          kernel->Exit(t);
          return;
        }
        kernel->Block(t);
        loop_ptr->ScheduleAfter(Microseconds(100), [kernel, t, loop] {
          kernel->StartBurst(t, kBurst, *loop);
          kernel->Wake(t);
        });
      };
      kernel->StartBurst(task, kBurst, *loop);
      kernel->Wake(task);
      tasks.push_back(task);
    }
    sim.RunFor(Milliseconds(400));

    Outcome out;
    out.injected = sim.fault_injector()->total_injected();
    out.txns_committed = enclave->txns_committed();
    out.messages_posted = enclave->messages_posted();
    out.all_done = true;
    for (Task* task : tasks) {
      out.total_runtime += task->total_runtime();
      out.all_done &= task->state() == TaskState::kDead &&
                      task->total_runtime() == kBurst * kBursts;
    }
    out.invariants_ok = checker.ok();
    return out;
  };

  std::vector<Outcome> serial(kRuns);
  for (int i = 0; i < kRuns; ++i) {
    serial[i] = run_one(i);
  }
  std::vector<Outcome> parallel(kRuns);
  BatchRunner runner(4);
  runner.Run(kRuns, [&](int i) { parallel[i] = run_one(i); });

  for (int i = 0; i < kRuns; ++i) {
    SCOPED_TRACE("run " + std::to_string(i));
    EXPECT_TRUE(serial[i].invariants_ok);
    EXPECT_TRUE(serial[i].all_done) << "work lost under faults";
    EXPECT_GT(serial[i].injected, 0u);
    EXPECT_TRUE(serial[i] == parallel[i])
        << "parallel chaos run diverged from serial";
  }
}

// The checker is not a rubber stamp: corrupting a status word is reported.
TEST_F(FaultInjectionTest, CheckerDetectsCorruptedStatusWord) {
  Build(2, std::make_unique<PerCpuFifoPolicy>());
  Task* worker = Worker("w", Microseconds(500), 50, Microseconds(100));
  machine_->RunFor(Milliseconds(2));
  ASSERT_TRUE(checker_->ok()) << checker_->Report();

  GhostTask* gt = enclave_->Find(worker->tid());
  ASSERT_NE(gt, nullptr);
  gt->status.tseq += 7;  // simulate a torn/corrupted shared-memory write
  checker_->CheckNow();
  EXPECT_FALSE(checker_->ok());
  gt->status.tseq -= 7;
}

}  // namespace
}  // namespace gs
