// Tests for the work-stealing per-CPU policy and the §3.1 ASSOCIATE_QUEUE
// protocol it exercises.
#include <gtest/gtest.h>

#include "src/agent/agent_process.h"
#include "src/policies/work_stealing.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace gs {
namespace {

class WorkStealingTest : public ::testing::Test {
 protected:
  void Build(int cpus) {
    machine_ = std::make_unique<SimulationContext>(
        SimulationContext::Options{.topology = Topology::Make("t", 1, cpus, 1, cpus)});
    enclave_ = machine_->CreateEnclave(CpuMask::AllUpTo(cpus));
    auto policy = std::make_unique<WorkStealingPolicy>();
    policy_ = policy.get();
    process_ = std::make_unique<AgentProcess>(&machine_->kernel(), machine_->ghost_class(),
                                              enclave_.get(), std::move(policy));
    process_->Start();
  }

  Task* Worker(const std::string& name, Duration burst, int repeats, Duration gap) {
    Task* t = machine_->kernel().CreateTask(name);
    enclave_->AddTask(t);
    Kernel* kernel = &machine_->kernel();
    EventLoop* loop_ptr = &machine_->loop();
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

  std::unique_ptr<SimulationContext> machine_;
  std::unique_ptr<Enclave> enclave_;
  std::unique_ptr<AgentProcess> process_;
  WorkStealingPolicy* policy_ = nullptr;
};

TEST_F(WorkStealingTest, RunsTasksToCompletion) {
  Build(4);
  std::vector<Task*> tasks;
  for (int i = 0; i < 12; ++i) {
    tasks.push_back(Worker("w" + std::to_string(i), Microseconds(100), 5, Microseconds(30)));
  }
  machine_->RunFor(Milliseconds(50));
  for (Task* t : tasks) {
    EXPECT_EQ(t->state(), TaskState::kDead) << t->name();
    EXPECT_EQ(t->total_runtime(), Microseconds(500)) << t->name();
  }
}

TEST_F(WorkStealingTest, IdleAgentStealsFromLoadedSibling) {
  Build(2);
  // Round-robin homing sends even-indexed tasks to one CPU and odd to the
  // other. Even tasks are heavy (4 x 3 ms), odd ones trivial, so the light
  // CPU's agent drains its queue and must steal the heavy CPU's backlog.
  std::vector<Task*> heavy, light;
  for (int i = 0; i < 8; ++i) {
    heavy.push_back(Worker("heavy" + std::to_string(i), Milliseconds(3), 4, Microseconds(10)));
    light.push_back(Worker("light" + std::to_string(i), Microseconds(50), 2, Microseconds(10)));
  }
  machine_->RunFor(Milliseconds(80));
  for (Task* t : heavy) {
    EXPECT_EQ(t->state(), TaskState::kDead) << t->name();
  }
  for (Task* t : light) {
    EXPECT_EQ(t->state(), TaskState::kDead) << t->name();
  }
  EXPECT_GT(policy_->steals(), 0u);
  // The heavy work (8 x 4 x 3 ms = 96 ms) finished in 80 ms: both CPUs
  // demonstrably shared it.
  EXPECT_GT(machine_->kernel().CpuBusyTime(0), Milliseconds(35));
  EXPECT_GT(machine_->kernel().CpuBusyTime(1), Milliseconds(35));
}

TEST_F(WorkStealingTest, ChurnWithStealsLosesNoWork) {
  Build(2);
  // Imbalanced mix with rapid block/wake cycles: steals and (timing
  // permitting) §3.1 pending-message association retries occur, and no task
  // or work may ever be lost.
  std::vector<Task*> tasks;
  for (int i = 0; i < 20; ++i) {
    const Duration burst = (i % 2 == 0) ? Milliseconds(1) : Microseconds(50);
    const int repeats = (i % 2 == 0) ? 20 : 10;
    tasks.push_back(Worker("w" + std::to_string(i), burst, repeats, Microseconds(5)));
  }
  machine_->RunFor(Milliseconds(400));
  for (size_t i = 0; i < tasks.size(); ++i) {
    const Duration burst = (i % 2 == 0) ? Milliseconds(1) : Microseconds(50);
    const int repeats = (i % 2 == 0) ? 20 : 10;
    EXPECT_EQ(tasks[i]->state(), TaskState::kDead) << tasks[i]->name();
    EXPECT_EQ(tasks[i]->total_runtime(), burst * repeats) << tasks[i]->name();
  }
  EXPECT_GT(policy_->steals(), 0u);
}

TEST_F(WorkStealingTest, StealRespectsAffinity) {
  Build(3);
  // A task pinned to CPU 0 can never be stolen by CPUs 1-2.
  Task* pinned = machine_->kernel().CreateTask("pinned");
  enclave_->AddTask(pinned);
  machine_->kernel().SetAffinity(pinned, CpuMask::Single(0));
  machine_->kernel().StartBurst(pinned, Milliseconds(5), [this](Task* t) {
    machine_->kernel().Exit(t);
  });
  machine_->kernel().Wake(pinned);
  machine_->RunFor(Milliseconds(20));
  EXPECT_EQ(pinned->state(), TaskState::kDead);
  EXPECT_EQ(pinned->last_cpu(), 0);
}

}  // namespace
}  // namespace gs
