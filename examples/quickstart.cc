// Quickstart: delegate scheduling of a few threads to a userspace agent.
//
// This walks the whole ghOSt flow end to end on a small simulated machine:
//   1. build a SimulationContext (one owned machine: event loop + kernel +
//      scheduling-class hierarchy + stats registry),
//   2. carve out an enclave over some CPUs,
//   3. attach an agent process running a per-CPU FIFO policy (Fig 3),
//   4. move native threads into the enclave,
//   5. watch the policy schedule them, then inspect statistics.
#include <cstdio>
#include <memory>

#include "src/policies/per_cpu_fifo.h"
#include "src/sim/simulation.h"

using namespace gs;

namespace {

// One worker cycle: burn 200us, then either exit (after 5 bursts) or sleep
// 100us and go again. Self-rearming via plain recursion — no heap-allocated
// self-referential closure.
void ArmBurst(Kernel& kernel, SimulationContext& sim, Task* t, int remaining) {
  kernel.StartBurst(t, Microseconds(200),
                    [&kernel, &sim, remaining](Task* task) {
    if (remaining == 1) {
      kernel.Exit(task);
      return;
    }
    kernel.Block(task);
    sim.loop().ScheduleAfter(Microseconds(100), [&kernel, &sim, task, remaining] {
      ArmBurst(kernel, sim, task, remaining - 1);
      kernel.Wake(task);
    });
  });
}

}  // namespace

int main() {
  // A small machine as one owned value: 1 socket, 4 cores, no SMT. The
  // context owns the event loop, kernel, and this run's stats registry —
  // several of these can coexist (even on different threads) without
  // sharing anything.
  SimulationContext sim(
      {.topology = Topology::Make("quickstart", 1, 4, 1, 4), .enable_stats = true});
  Kernel& kernel = sim.kernel();

  // The enclave owns CPUs 0-3; its threads are scheduled by our agent.
  auto enclave = sim.CreateEnclave(CpuMask::AllUpTo(4));

  // Launch the agent process: one agent pthread pinned per enclave CPU,
  // running the per-CPU FIFO policy from userspace.
  auto agents =
      sim.CreateAgentProcess(enclave.get(), std::make_unique<PerCpuFifoPolicy>());
  agents->Start();

  // Create eight native threads that each perform 5 bursts of 200us of work
  // with 100us sleeps in between, then exit. AddTask() moves them into the
  // enclave: from now on the *agent*, not the kernel, decides where and when
  // they run.
  std::vector<Task*> threads;
  for (int i = 0; i < 8; ++i) {
    Task* t = kernel.CreateTask("worker/" + std::to_string(i));
    enclave->AddTask(t);
    ArmBurst(kernel, sim, t, 5);
    kernel.Wake(t);
    threads.push_back(t);
  }

  sim.RunFor(Milliseconds(20));

  std::printf("quickstart: %d threads scheduled by the ghOSt per-CPU FIFO agent\n",
              static_cast<int>(threads.size()));
  for (Task* t : threads) {
    std::printf("  %-10s state=%-8s cpu_time=%lld us (expected 1000)\n",
                t->name().c_str(), ToString(t->state()),
                static_cast<long long>(t->total_runtime() / 1000));
  }
  std::printf("enclave: %llu messages posted, %llu transactions committed, "
              "%llu failed\n",
              (unsigned long long)enclave->messages_posted(),
              (unsigned long long)enclave->txns_committed(),
              (unsigned long long)enclave->txns_failed());
  auto* policy = static_cast<PerCpuFifoPolicy*>(agents->policy());
  std::printf("policy: %llu local schedules, %llu ESTALE retries\n",
              (unsigned long long)policy->scheduled(),
              (unsigned long long)policy->estale_failures());
  for (Task* t : threads) {
    if (t->state() != TaskState::kDead || t->total_runtime() != Microseconds(1000)) {
      std::printf("ERROR: %s did not finish its 1000 us of work\n", t->name().c_str());
      return 1;
    }
  }
  return 0;
}
