// Randomized stress test of the whole stack: a chaos driver applies random
// operations (spawn, wake/block churn, affinity flips, nice changes, enclave
// remove/re-add churn, mid-run agent upgrades) against each stock policy,
// with the invariant checker scanning continuously and global invariants
// asserted afterwards — no lost tasks, exact work conservation, consistent
// enclave bookkeeping.
#include <gtest/gtest.h>

#include <ostream>

#include "src/agent/agent_process.h"
#include "src/base/rng.h"
#include "src/policies/centralized_fifo.h"
#include "src/policies/factory.h"
#include "src/policies/per_cpu_fifo.h"
#include "src/policies/search.h"
#include "src/policies/work_stealing.h"
#include "src/sim/simulation.h"
#include "src/verify/invariants.h"
#include "tests/test_util.h"

namespace gs {
namespace {

struct ChaosParams {
  // 0 per-cpu, 1 centralized, 2 centralized+slice, 3 work-stealing,
  // 4 shinjuku, 5 search
  int policy;
  uint64_t seed;
};

// Names each case (e.g. policy3_seed707) by its values, never its bytes.
void PrintTo(const ChaosParams& params, std::ostream* os) {
  *os << "policy" << params.policy << "_seed" << params.seed;
}

std::unique_ptr<Policy> MakePolicy(int kind) {
  switch (kind) {
    case 0:
      return std::make_unique<PerCpuFifoPolicy>();
    case 2: {
      CentralizedFifoPolicy::Options options;
      options.preemption_timeslice = Microseconds(50);
      return std::make_unique<CentralizedFifoPolicy>(options);
    }
    case 3:
      return std::make_unique<WorkStealingPolicy>();
    case 4:
      return gs::MakePolicy({.kind = "shinjuku", .timeslice_us = 30}, PolicyEnv{});
    case 5:
      return std::make_unique<SearchPolicy>();
    default:
      return std::make_unique<CentralizedFifoPolicy>();
  }
}

class ChaosTest : public ::testing::TestWithParam<ChaosParams> {};

TEST_P(ChaosTest, InvariantsHoldUnderRandomOperations) {
  const ChaosParams params = GetParam();
  Rng rng(params.seed);
  // 16 CPUs, 2 sockets, CCXs.
  SimulationContext m({.topology = Topology::Make("chaos", 2, 4, 2, 2)});
  auto enclave = m.CreateEnclave(m.kernel().topology().AllCpus());
  // Held through a shared handle so the upgrade chaos op can swap in a
  // replacement process mid-run (§3.4).
  auto process = std::make_shared<std::unique_ptr<AgentProcess>>(
      std::make_unique<AgentProcess>(&m.kernel(), m.ghost_class(), enclave.get(),
                                     MakePolicy(params.policy)));
  (*process)->Start();

  InvariantChecker checker(&m.kernel());
  checker.Watch(enclave.get());
  checker.Start();

  struct WorkerState {
    Task* task = nullptr;
    Duration expected_work = 0;
  };
  auto workers = std::make_shared<std::vector<WorkerState>>();
  Kernel* kernel = &m.kernel();
  EventLoop* loop = &m.loop();

  // Spawn workers with random burst chains.
  auto spawn = [&](int index) {
    Task* t = kernel->CreateTask("chaos" + std::to_string(index));
    enclave->AddTask(t);
    const int repeats = 3 + static_cast<int>(rng.NextBounded(8));
    const auto burst = static_cast<Duration>(5'000 + rng.NextBounded(300'000));
    const auto gap = static_cast<Duration>(1'000 + rng.NextBounded(50'000));
    workers->push_back({t, burst * repeats});
    auto remaining = std::make_shared<int>(repeats);
    auto chain = std::make_shared<std::function<void(Task*)>>();
    *chain = [kernel, loop, remaining, burst, gap, chain](Task* task) {
      if (--*remaining <= 0) {
        kernel->Exit(task);
        return;
      }
      kernel->Block(task);
      loop->ScheduleAfter(gap, [kernel, task, burst, chain] {
        kernel->StartBurst(task, burst, *chain);
        kernel->Wake(task);
      });
    };
    kernel->StartBurst(t, burst, *chain);
    kernel->Wake(t);
  };
  for (int i = 0; i < 24; ++i) {
    spawn(i);
  }

  // Chaos operations sprinkled through the first 50 ms.
  Enclave* enc = enclave.get();
  const int policy_kind = params.policy;
  for (int op = 0; op < 72; ++op) {
    const Time when = static_cast<Time>(rng.NextBounded(50'000'000));
    const uint64_t kind = rng.NextBounded(5);
    const size_t victim = rng.NextBounded(24);
    const uint64_t arg = rng.Next();
    loop->ScheduleAt(when, [workers, victim, kind, arg, kernel, loop, enc, process,
                            policy_kind, &m] {
      Task* task = (*workers)[victim].task;
      if (task->state() == TaskState::kDead) {
        return;
      }
      switch (kind) {
        case 0: {  // affinity flip: one random socket, or everything
          const int numa = static_cast<int>(arg % 3);
          if (numa < 2) {
            kernel->SetAffinity(task, m.kernel().topology().NumaMask(numa));
          } else {
            kernel->SetAffinity(task, m.kernel().topology().AllCpus());
          }
          break;
        }
        case 1:
          kernel->SetNice(task, static_cast<int>(arg % 40) - 20);
          break;
        case 2:
          // CFS interference: a short foreign burst lands somewhere.
          SpawnOneShot(*kernel, "intruder", Microseconds(200));
          break;
        case 3: {
          // Enclave churn: yank the thread out to CFS, re-add it shortly
          // after (if it survives that long). Sequence numbers restart.
          if (enc->destroyed() || task->ghost_state() == nullptr) {
            return;
          }
          enc->RemoveTask(task);
          const Duration back_in = static_cast<Duration>(50'000 + arg % 500'000);
          loop->ScheduleAfter(back_in, [enc, task] {
            if (!enc->destroyed() && task->state() != TaskState::kDead &&
                task->ghost_state() == nullptr) {
              enc->AddTask(task);
            }
          });
          break;
        }
        case 4:
          // In-place agent upgrade (§3.4): the old process exits, a fresh
          // one attaches and restores the policy view from the kernel dump.
          if (enc->destroyed()) {
            return;
          }
          (*process)->Shutdown();
          *process = std::make_unique<AgentProcess>(kernel, m.ghost_class(), enc,
                                                    MakePolicy(policy_kind));
          (*process)->Start();
          break;
      }
    });
  }

  m.RunFor(Milliseconds(400));

  // Invariants: every worker finished with exactly its demanded work.
  for (const WorkerState& w : *workers) {
    EXPECT_EQ(w.task->state(), TaskState::kDead) << w.task->name();
    EXPECT_GE(w.task->total_runtime(), w.expected_work) << w.task->name();
    // Wall time exceeds work only via SMT contention (factor 0.7).
    EXPECT_LE(static_cast<double>(w.task->total_runtime()),
              static_cast<double>(w.expected_work) / 0.7 + 2000.0)
        << w.task->name();
  }
  EXPECT_EQ(enclave->num_tasks(), 0) << "all ghOSt threads reaped";
  EXPECT_FALSE(enclave->destroyed());
  EXPECT_TRUE(checker.ok()) << checker.Report();
  EXPECT_GT(checker.scans(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndSeeds, ChaosTest,
    ::testing::Values(ChaosParams{0, 101}, ChaosParams{0, 202}, ChaosParams{1, 303},
                      ChaosParams{1, 404}, ChaosParams{2, 505}, ChaosParams{2, 606},
                      ChaosParams{3, 707}, ChaosParams{3, 808}, ChaosParams{4, 909},
                      ChaosParams{4, 1010}, ChaosParams{5, 1111}, ChaosParams{5, 1212}));

}  // namespace
}  // namespace gs
