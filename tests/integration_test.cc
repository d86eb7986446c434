// Cross-module integration tests: multi-enclave isolation, class
// co-existence, the fast path under a live policy, determinism across the
// full stack, and invariant sweeps.
#include <gtest/gtest.h>

#include "src/agent/agent_process.h"

#include "src/base/rng.h"
#include "src/policies/centralized_fifo.h"
#include "src/policies/per_cpu_fifo.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace gs {
namespace {

Task* BurstyWorker(SimulationContext& m, Enclave& enclave, const std::string& name, Duration burst,
                   Duration gap, int repeats) {
  Task* t = m.kernel().CreateTask(name);
  enclave.AddTask(t);
  Kernel* kernel = &m.kernel();
  EventLoop* loop_ptr = &m.loop();
  auto remaining = std::make_shared<int>(repeats);
  auto loop = std::make_shared<std::function<void(Task*)>>();
  *loop = [kernel, loop_ptr, remaining, burst, gap, loop](Task* task) {
    if (--*remaining <= 0) {
      kernel->Exit(task);
      return;
    }
    kernel->Block(task);
    loop_ptr->ScheduleAfter(gap, [kernel, task, burst, loop] {
      kernel->StartBurst(task, burst, *loop);
      kernel->Wake(task);
    });
  };
  kernel->StartBurst(t, burst, *loop);
  kernel->Wake(t);
  return t;
}

TEST(MultiEnclaveTest, TwoEnclavesRunIndependentPolicies) {
  // Fig 2's split: one enclave per half of the machine, per-CPU FIFO on one,
  // centralized on the other.
  SimulationContext m({.topology = Topology::Make("t", 1, 8, 1, 8)});
  auto left = m.CreateEnclave(CpuMask::AllUpTo(4));
  CpuMask right_cpus;
  for (int cpu = 4; cpu < 8; ++cpu) {
    right_cpus.Set(cpu);
  }
  auto right = m.CreateEnclave(right_cpus);

  AgentProcess left_agents(&m.kernel(), m.ghost_class(), left.get(),
                           std::make_unique<PerCpuFifoPolicy>());
  left_agents.Start();
  CentralizedFifoPolicy::Options options;
  options.global_cpu = 4;
  AgentProcess right_agents(&m.kernel(), m.ghost_class(), right.get(),
                            std::make_unique<CentralizedFifoPolicy>(options));
  right_agents.Start();

  std::vector<Task*> left_tasks, right_tasks;
  for (int i = 0; i < 4; ++i) {
    left_tasks.push_back(
        BurstyWorker(m, *left, "L" + std::to_string(i), Microseconds(100), Microseconds(50), 10));
    right_tasks.push_back(
        BurstyWorker(m, *right, "R" + std::to_string(i), Microseconds(100), Microseconds(50), 10));
  }
  m.RunFor(Milliseconds(100));
  for (Task* t : left_tasks) {
    EXPECT_EQ(t->state(), TaskState::kDead) << t->name();
    EXPECT_LT(t->last_cpu(), 4) << t->name() << " escaped its enclave";
  }
  for (Task* t : right_tasks) {
    EXPECT_EQ(t->state(), TaskState::kDead) << t->name();
    EXPECT_GE(t->last_cpu(), 4) << t->name() << " escaped its enclave";
  }
}

TEST(MultiEnclaveTest, DestroyingOneEnclaveLeavesTheOtherIntact) {
  SimulationContext m({.topology = Topology::Make("t", 1, 8, 1, 8)});
  auto left = m.CreateEnclave(CpuMask::AllUpTo(4));
  CpuMask right_cpus;
  for (int cpu = 4; cpu < 8; ++cpu) {
    right_cpus.Set(cpu);
  }
  auto right = m.CreateEnclave(right_cpus);
  AgentProcess left_agents(&m.kernel(), m.ghost_class(), left.get(),
                           std::make_unique<PerCpuFifoPolicy>());
  left_agents.Start();
  CentralizedFifoPolicy::Options options;
  options.global_cpu = 4;
  AgentProcess right_agents(&m.kernel(), m.ghost_class(), right.get(),
                            std::make_unique<CentralizedFifoPolicy>(options));
  right_agents.Start();

  Task* left_task = BurstyWorker(m, *left, "L", Microseconds(200), Microseconds(50), 50);
  Task* right_task = BurstyWorker(m, *right, "R", Microseconds(200), Microseconds(50), 50);
  m.RunFor(Milliseconds(2));

  left->Destroy();
  m.RunFor(Milliseconds(100));
  // Left task fell back to CFS and still finished; right unaffected.
  EXPECT_EQ(left_task->state(), TaskState::kDead);
  EXPECT_EQ(left_task->sched_class(), m.kernel().default_class());
  EXPECT_EQ(right_task->state(), TaskState::kDead);
  EXPECT_FALSE(right->destroyed());
}

TEST(CoexistenceTest, CfsMicroQuantaAndGhostShareTheMachine) {
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(2));
  AgentProcess agents(&m.kernel(), m.ghost_class(), enclave.get(),
                      std::make_unique<CentralizedFifoPolicy>());
  agents.Start();

  Task* ghost_hog = BurstyWorker(m, *enclave, "ghost", Milliseconds(100), 0, 2);
  Task* cfs_hog = SpawnHog(m.kernel(), "cfs", nullptr, Milliseconds(1));
  Task* mq_hog = SpawnHog(m.kernel(), "mq", m.mq_class(), Milliseconds(1));
  m.RunFor(Milliseconds(100));

  // Priority order must hold. The spinning global agent owns CPU 0, so the
  // MicroQuanta hog gets ~90% of CPU 1 (0.9 ms quanta / 1 ms period) and the
  // CFS hog the remaining ~10%; the ghOSt thread (lowest class) gets nothing
  // while CFS wants the CPU.
  EXPECT_GT(mq_hog->total_runtime(), Milliseconds(85));
  EXPECT_GT(cfs_hog->total_runtime(), Milliseconds(8));
  EXPECT_LT(cfs_hog->total_runtime(), Milliseconds(20));
  EXPECT_GT(m.mq_class()->throttle_count(), 50u);
  EXPECT_LT(ghost_hog->total_runtime(), Milliseconds(5));
}

TEST(FastPathIntegrationTest, PolicyPublishesAndIdleCpusConsume) {
  SimulationContext m({.topology = Topology::Make("t", 1, 4, 1, 4)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(4));
  CentralizedFifoPolicy::Options options;
  options.global_cpu = 0;
  options.use_fastpath = true;
  options.extra_loop_cost = Microseconds(50);  // slow agent: the ring matters
  AgentProcess agents(&m.kernel(), m.ghost_class(), enclave.get(),
                      std::make_unique<CentralizedFifoPolicy>(options));
  agents.Start();
  std::vector<Task*> tasks;
  for (int i = 0; i < 6; ++i) {
    tasks.push_back(BurstyWorker(m, *enclave, "w" + std::to_string(i), Microseconds(20),
                                 Microseconds(30), 50));
  }
  m.RunFor(Milliseconds(100));
  for (Task* t : tasks) {
    EXPECT_EQ(t->state(), TaskState::kDead) << t->name();
  }
  EXPECT_GT(m.ghost_class()->fastpath_picks(), 20u)
      << "idle CPUs should serve wakeups from the ring while the agent crawls";
}

// Determinism across the full stack, parameterized by policy shape.
class DeterminismTest : public ::testing::TestWithParam<int> {};

TEST_P(DeterminismTest, IdenticalSeedsIdenticalTraces) {
  auto run = [&] {
    SimulationContext m({.topology = Topology::Make("t", 1, 4, 2, 4)});
    auto enclave = m.CreateEnclave(m.kernel().topology().AllCpus());
    std::unique_ptr<Policy> policy;
    if (GetParam() == 0) {
      policy = std::make_unique<PerCpuFifoPolicy>();
    } else {
      CentralizedFifoPolicy::Options options;
      options.preemption_timeslice = GetParam() == 2 ? Microseconds(30) : 0;
      policy = std::make_unique<CentralizedFifoPolicy>(options);
    }
    AgentProcess agents(&m.kernel(), m.ghost_class(), enclave.get(), std::move(policy));
    agents.Start();
    Rng rng(99);
    std::vector<Task*> tasks;
    for (int i = 0; i < 12; ++i) {
      tasks.push_back(BurstyWorker(m, *enclave, "w" + std::to_string(i),
                                   Microseconds(10 + rng.NextBounded(200)),
                                   Microseconds(10 + rng.NextBounded(100)), 20));
    }
    m.RunFor(Milliseconds(80));
    std::vector<int64_t> trace;
    for (Task* t : tasks) {
      trace.push_back(t->total_runtime());
      trace.push_back(static_cast<int64_t>(t->state()));
    }
    trace.push_back(static_cast<int64_t>(m.kernel().total_context_switches()));
    trace.push_back(static_cast<int64_t>(enclave->messages_posted()));
    trace.push_back(static_cast<int64_t>(enclave->txns_committed()));
    return trace;
  };
  EXPECT_EQ(run(), run());
}

INSTANTIATE_TEST_SUITE_P(Policies, DeterminismTest, ::testing::Values(0, 1, 2));

// Conservation sweep: under any of the stock policies, no work is lost.
class ConservationTest : public ::testing::TestWithParam<int> {};

TEST_P(ConservationTest, EveryBurstCompletesExactly) {
  const int num_tasks = GetParam();
  SimulationContext m({.topology = Topology::Make("t", 1, 4, 2, 4)});
  auto enclave = m.CreateEnclave(m.kernel().topology().AllCpus());
  AgentProcess agents(&m.kernel(), m.ghost_class(), enclave.get(),
                      std::make_unique<CentralizedFifoPolicy>());
  agents.Start();
  std::vector<Task*> tasks;
  for (int i = 0; i < num_tasks; ++i) {
    tasks.push_back(BurstyWorker(m, *enclave, "w" + std::to_string(i), Microseconds(70),
                                 Microseconds(20), 10));
  }
  m.RunFor(Milliseconds(200));
  for (Task* t : tasks) {
    ASSERT_EQ(t->state(), TaskState::kDead) << t->name();
    // Demanded *work* is conserved exactly; wall-clock CPU time exceeds it
    // when a hyperthread sibling was busy (0.7 speed factor).
    EXPECT_GE(t->total_runtime(), Microseconds(70) * 10) << t->name();
    EXPECT_LE(t->total_runtime(),
              static_cast<Duration>(Microseconds(70) * 10 / 0.7) + Microseconds(2))
        << t->name();
  }
}

INSTANTIATE_TEST_SUITE_P(TaskCounts, ConservationTest, ::testing::Values(1, 4, 16, 64));

}  // namespace
}  // namespace gs
