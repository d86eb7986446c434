// Non-disruptive policy upgrade and crash fallback (§3.4).
//
// Part 1 — in-place upgrade: threads run under a per-CPU FIFO agent; the
// agent exits; a *new* agent process with a different policy (centralized
// Shinjuku) attaches to the same enclave, extracts thread state from the
// kernel, and resumes scheduling. The threads never stop making progress and
// never leave the enclave — no machine or application restart.
//
// Part 2 — crash fallback: the agents die with no replacement; the watchdog
// destroys the enclave and every thread falls back to CFS, still running.
#include <cstdio>
#include <memory>

#include "src/policies/factory.h"
#include "src/policies/per_cpu_fifo.h"
#include "src/sim/simulation.h"

using namespace gs;

namespace {

// Self-rearming worker cycle: burn 300us, sleep 200us, repeat — plain
// recursion instead of a heap-allocated self-referential closure.
void ArmBurst(SimulationContext& machine, Task* t) {
  Kernel& kernel = machine.kernel();
  kernel.StartBurst(t, Microseconds(300), [&machine, &kernel](Task* task) {
    kernel.Block(task);
    machine.loop().ScheduleAfter(Microseconds(200), [&machine, &kernel, task] {
      ArmBurst(machine, task);
      kernel.Wake(task);
    });
  });
}

Task* SpawnWorker(SimulationContext& machine, Enclave& enclave, int i) {
  Kernel& kernel = machine.kernel();
  Task* t = kernel.CreateTask("worker/" + std::to_string(i));
  enclave.AddTask(t);
  ArmBurst(machine, t);
  kernel.Wake(t);
  return t;
}

}  // namespace

int main() {
  Enclave::Config config;
  config.watchdog_timeout = Milliseconds(50);
  config.watchdog_period = Milliseconds(10);

  SimulationContext machine({.topology = Topology::Make("upgrade-demo", 1, 4, 1, 4)});
  auto enclave = machine.CreateEnclave(CpuMask::AllUpTo(4), config);

  auto old_agents =
      machine.CreateAgentProcess(enclave.get(), std::make_unique<PerCpuFifoPolicy>());
  old_agents->Start();

  std::vector<Task*> workers;
  for (int i = 0; i < 6; ++i) {
    workers.push_back(SpawnWorker(machine, *enclave, i));
  }
  machine.RunFor(Milliseconds(20));
  Duration before_upgrade = 0;
  for (Task* w : workers) {
    before_upgrade += w->total_runtime();
  }
  std::printf("t=%2lldms  per-CPU FIFO agent running, worker cpu time %lld us\n",
              (long long)(machine.now() / 1000000), (long long)(before_upgrade / 1000));

  // --- In-place upgrade: old agent exits, new policy attaches. -------------
  old_agents->Shutdown();
  auto new_agents = machine.CreateAgentProcess(
      enclave.get(), MakePolicy({.kind = "shinjuku", .global_cpu = 0, .timeslice_us = 50}, {}));
  new_agents->Start();
  std::printf("upgraded policy %s -> %s without touching the threads\n",
              "per-cpu-fifo", new_agents->policy()->name());

  machine.RunFor(Milliseconds(20));
  Duration after_upgrade = 0;
  for (Task* w : workers) {
    after_upgrade += w->total_runtime();
  }
  std::printf("t=%2lldms  centralized agent running, worker cpu time %lld us (+%lld)\n",
              (long long)(machine.now() / 1000000), (long long)(after_upgrade / 1000),
              (long long)((after_upgrade - before_upgrade) / 1000));
  if (after_upgrade <= before_upgrade) {
    std::printf("ERROR: threads stalled across the upgrade\n");
    return 1;
  }

  // --- Crash: no replacement agent; watchdog falls everything back to CFS. --
  new_agents->Crash();
  std::printf("agents crashed; waiting for the watchdog...\n");
  machine.RunFor(Milliseconds(200));
  Duration after_crash = 0;
  for (Task* w : workers) {
    after_crash += w->total_runtime();
  }
  std::printf("t=%lldms enclave destroyed=%s, threads now under %s, cpu time %lld us (+%lld)\n",
              (long long)(machine.now() / 1000000),
              enclave->destroyed() ? "yes" : "no",
              workers[0]->sched_class()->name(), (long long)(after_crash / 1000),
              (long long)((after_crash - after_upgrade) / 1000));
  const bool ok = enclave->destroyed() && after_crash > after_upgrade &&
                  workers[0]->sched_class() == machine.kernel().default_class();
  std::printf("%s\n", ok ? "crash fallback held: no thread was lost"
                         : "ERROR: fallback failed");
  return ok ? 0 : 1;
}
