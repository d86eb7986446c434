// O1 multilevel-queue policy tests: timeslice map, equal-priority fairness,
// priority differentiation with starvation freedom (the active/expired array
// swap), and survival of the chaos battery with invariants held.
#include "src/policies/o1.h"

#include <map>
#include <memory>
#include <vector>

#include "gtest/gtest.h"
#include "src/sim/batch_runner.h"
#include "src/sim/simulation.h"
#include "src/sim/simulation.h"
#include "src/verify/invariants.h"
#include "tests/test_util.h"

namespace gs {
namespace {

TEST(O1TimesliceTest, InterpolatesBaseToMinByPriority) {
  O1Policy::Options options;
  options.num_priorities = 8;
  options.base_timeslice = Milliseconds(6);
  options.min_timeslice = Milliseconds(1);
  O1Policy policy(options);
  EXPECT_EQ(policy.TimesliceFor(0), Milliseconds(6));
  EXPECT_EQ(policy.TimesliceFor(7), Milliseconds(1));
  for (int p = 1; p < 8; ++p) {
    EXPECT_LE(policy.TimesliceFor(p), policy.TimesliceFor(p - 1))
        << "timeslice must not grow as priority drops (p=" << p << ")";
    EXPECT_GE(policy.TimesliceFor(p), Milliseconds(1));
  }
}

TEST(O1TimesliceTest, SinglePriorityUsesBase) {
  O1Policy::Options options;
  options.num_priorities = 1;
  options.base_timeslice = Milliseconds(4);
  options.min_timeslice = Milliseconds(1);
  O1Policy policy(options);
  EXPECT_EQ(policy.TimesliceFor(0), Milliseconds(4));
}

class O1PolicyTest : public ::testing::Test {
 protected:
  // An O1 enclave over `num_cpus` CPUs; `prio_map` routes tids to priority
  // levels (tasks are registered in the map before entering the enclave).
  void Build(int num_cpus) {
    machine_ = std::make_unique<SimulationContext>(
        SimulationContext::Options{.topology = Topology::Make("o1t", 1, num_cpus, 1, num_cpus)});
    enclave_ = machine_->CreateEnclave(CpuMask::AllUpTo(num_cpus));
    prio_map_ = std::make_shared<std::map<int64_t, int>>();
    O1Policy::Options options;
    options.num_priorities = 8;
    options.base_timeslice = Milliseconds(6);
    options.min_timeslice = Milliseconds(1);
    auto prio_map = prio_map_;
    options.priority_of = [prio_map](int64_t tid) {
      auto it = prio_map->find(tid);
      return it == prio_map->end() ? 4 : it->second;
    };
    auto policy = std::make_unique<O1Policy>(options);
    policy_ = policy.get();
    process_ = std::make_unique<AgentProcess>(&machine_->kernel(), machine_->ghost_class(),
                                              enclave_.get(), std::move(policy));
    process_->Start();
  }

  // A CPU hog at `prio`, already inside the enclave.
  Task* Hog(const std::string& name, int prio, Duration chunk = Milliseconds(2)) {
    Kernel& kernel = machine_->kernel();
    Task* task = kernel.CreateTask(name);
    (*prio_map_)[task->tid()] = prio;
    enclave_->AddTask(task);
    auto loop = std::make_shared<std::function<void(Task*)>>();
    Kernel* kernel_ptr = &kernel;
    *loop = [kernel_ptr, chunk, loop](Task* t) {
      kernel_ptr->StartBurst(t, chunk, *loop);
    };
    kernel.StartBurst(task, chunk, *loop);
    kernel.Wake(task);
    return task;
  }

  std::unique_ptr<SimulationContext> machine_;
  std::unique_ptr<Enclave> enclave_;
  std::shared_ptr<std::map<int64_t, int>> prio_map_;
  O1Policy* policy_ = nullptr;
  std::unique_ptr<AgentProcess> process_;
};

// Satellite acceptance: equal-priority competitors end with near-equal CPU
// shares. Four hogs on two CPUs for 240 ms => fair share is 120 ms each;
// the array swap plus per-generation slices must keep everyone within
// tolerance.
TEST_F(O1PolicyTest, EqualPriorityTasksShareCpuFairly) {
  Build(2);
  std::vector<Task*> hogs;
  for (int i = 0; i < 4; ++i) {
    hogs.push_back(Hog("hog" + std::to_string(i), /*prio=*/4));
  }
  machine_->RunFor(Milliseconds(240));

  Duration total = 0;
  Duration lo = kTimeNever;
  Duration hi = 0;
  for (Task* hog : hogs) {
    const Duration runtime = hog->total_runtime();
    total += runtime;
    lo = std::min(lo, runtime);
    hi = std::max(hi, runtime);
  }
  const double mean = static_cast<double>(total) / 4;
  EXPECT_GT(mean, ToSeconds(Milliseconds(80)) * 1e9)
      << "hogs barely ran; scheduling is broken";
  EXPECT_GE(static_cast<double>(lo), 0.70 * mean)
      << "worst-off hog got " << ToMillis(lo) << " ms of a " << ToMillis(total)
      << " ms pie";
  EXPECT_LE(static_cast<double>(hi), 1.30 * mean)
      << "best-off hog got " << ToMillis(hi) << " ms of a " << ToMillis(total)
      << " ms pie";
  EXPECT_GT(policy_->scheduled(), 0u);
  EXPECT_GT(policy_->array_swaps(), 0u) << "no array swap in 240 ms of contention";
  EXPECT_GT(policy_->slice_expirations(), 0u);
}

// Priority differentiation without starvation: on one CPU, priority 0 gets
// a 6x longer slice per array generation than priority 7, so its share
// dominates — but the expired-array swap guarantees the low-priority hog
// keeps making progress.
TEST_F(O1PolicyTest, HighPriorityDominatesButLowNeverStarves) {
  Build(1);
  Task* high = Hog("high", /*prio=*/0, Milliseconds(1));
  Task* low = Hog("low", /*prio=*/7, Milliseconds(1));
  machine_->RunFor(Milliseconds(200));

  const Duration high_rt = high->total_runtime();
  const Duration low_rt = low->total_runtime();
  EXPECT_GT(high_rt, low_rt) << "priority 0 must out-run priority 7";
  // ~6:1 slice ratio => low should still take roughly 1/7 of the CPU.
  EXPECT_GT(static_cast<double>(low_rt),
            0.05 * static_cast<double>(high_rt + low_rt))
      << "low-priority hog starved: " << ToMillis(low_rt) << " ms";
  EXPECT_GT(policy_->array_swaps(), 0u)
      << "starvation freedom depends on the array swap actually happening";
}

// A sleeper that wakes gets a fresh slice in the active array and preempts
// expired-array hogs promptly: its wake-to-done latency stays near its burst
// length even with the CPU saturated.
TEST_F(O1PolicyTest, SleeperRejoinsActiveArrayPromptly) {
  Build(1);
  Hog("hog", /*prio=*/4, Milliseconds(1));
  Kernel& kernel = machine_->kernel();
  Task* sleeper = kernel.CreateTask("sleeper");
  (*prio_map_)[sleeper->tid()] = 0;  // interactive: highest level
  enclave_->AddTask(sleeper);

  constexpr Duration kBurst = Microseconds(200);
  constexpr int kRounds = 20;
  auto done_times = std::make_shared<std::vector<Time>>();
  auto wake_times = std::make_shared<std::vector<Time>>();
  auto round = std::make_shared<std::function<void(Task*)>>();
  Kernel* kernel_ptr = &kernel;
  EventLoop* loop = &machine_->loop();
  *round = [kernel_ptr, loop, done_times, wake_times, round](Task* t) {
    done_times->push_back(kernel_ptr->now());
    if (done_times->size() >= kRounds) {
      kernel_ptr->Exit(t);
      return;
    }
    kernel_ptr->Block(t);
    loop->ScheduleAfter(Milliseconds(3), [kernel_ptr, wake_times, t, round] {
      wake_times->push_back(kernel_ptr->now());
      kernel_ptr->StartBurst(t, kBurst, *round);
      kernel_ptr->Wake(t);
    });
  };
  wake_times->push_back(kernel.now());
  kernel.StartBurst(sleeper, kBurst, *round);
  kernel.Wake(sleeper);

  machine_->RunFor(Milliseconds(150));
  ASSERT_EQ(done_times->size(), static_cast<size_t>(kRounds));
  // Every round: woken at w, done by w + burst + (bounded scheduling delay).
  // The hog's 1 ms chunks bound how long the sleeper can wait for the agent
  // to preempt, so a generous bound still proves active-array re-entry.
  for (size_t i = 0; i < done_times->size(); ++i) {
    const Duration latency = (*done_times)[i] - (*wake_times)[i];
    EXPECT_LT(latency, Milliseconds(3))
        << "round " << i << ": sleeper waited " << ToMillis(latency) << " ms";
  }
}

// Satellite acceptance: the chaos battery. ESTALE storms, dropped messages,
// and IPI faults, across seeds, must never wedge the policy: all work
// completes, invariants hold, serial == parallel.
TEST(O1ChaosTest, SurvivesChaosBatteryWithInvariantsHeld) {
  struct Outcome {
    uint64_t injected = 0;
    int64_t total_runtime = 0;
    bool all_done = false;
    bool invariants_ok = false;

    bool operator==(const Outcome& o) const {
      return injected == o.injected && total_runtime == o.total_runtime &&
             all_done == o.all_done && invariants_ok == o.invariants_ok;
    }
  };

  constexpr int kSeeds = 3;
  constexpr int kConfigs = 3;
  constexpr int kRuns = kSeeds * kConfigs;

  auto run_one = [](int index) -> Outcome {
    FaultInjector::Config faults;
    switch (index / kSeeds) {
      case 0:
        faults.estale_probability = 0.3;
        break;
      case 1:
        // IPI faults never fire for a per-CPU policy (O1 commits are all
        // local commit-and-yield), so this row combines the two fault kinds
        // that do bite it, unwindowed: stale commits while messages drop.
        faults.estale_probability = 0.15;
        faults.msg_drop_probability = 0.1;
        break;
      default:
        faults.msg_drop_probability = 0.2;
        faults.window_start = Milliseconds(2);
        faults.window_end = Milliseconds(8);
        break;
    }
    SimulationContext::Options options;
    options.topology = Topology::Make("o1chaos", 1, 2, 1, 2);
    options.seed = 42 + static_cast<uint64_t>(index % kSeeds);
    options.faults = faults;
    SimulationContext sim(std::move(options));

    auto enclave = sim.CreateEnclave(CpuMask::AllUpTo(2));
    O1Policy::Options o1;
    o1.num_priorities = 4;
    // Mixed priorities: tids alternate levels, so the storm hits both the
    // bitmap-pick path and the expired-array rotation.
    o1.priority_of = [](int64_t tid) { return static_cast<int>(tid % 4); };
    auto process =
        sim.CreateAgentProcess(enclave.get(), std::make_unique<O1Policy>(o1));
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

}  // namespace
}  // namespace gs
