// Ablation (§3.2): group-commit amortization.
//
// "An agent commits multiple transactions by passing all of them to the
// TXNS_COMMIT() syscall. This syscall amortizes the expensive overheads over
// several transactions. Most importantly, it amortizes the overhead of
// sending interrupts by using the batch interrupt functionality."
//
// Sweep the per-syscall transaction cap on the Fig 5 setup (56 scheduled
// Skylake CPUs, saturating round-robin load) and report agent throughput.
#include <cstdio>
#include <memory>

#include "bench/harness.h"
#include "bench/machine_trace.h"
#include "src/agent/agent_process.h"
#include "src/policies/centralized_fifo.h"
#include "src/sim/simulation.h"

namespace gs {
namespace {

constexpr Duration kTaskBurst = Microseconds(10);
Duration kMeasure = Milliseconds(200);
constexpr int kCpus = 56;

// Self-rearming burst chain (see fig5_scalability.cc): block, re-arm, re-wake
// 100 ns later, with no per-cycle heap allocation.
void ArmWorkerBurst(Kernel* k, Task* t) {
  k->StartBurst(t, kTaskBurst, [k](Task* done) {
    k->Block(done);
    k->loop()->ScheduleAfter(Nanoseconds(100), [k, done] {
      ArmWorkerBurst(k, done);
      k->Wake(done);
    });
  });
}

void SpawnWorker(Kernel& kernel, Enclave& enclave, int index) {
  Task* task = kernel.CreateTask("w/" + std::to_string(index));
  enclave.AddTask(task);
  ArmWorkerBurst(&kernel, task);
  kernel.Wake(task);
}

double Run(bench::Run& run, int max_group) {
  SimulationContext m({.topology = Topology::IntelSkylake112(), .stats = &run.stats()});
  bench::ScopedMachineTrace trace_scope(run, m.kernel());
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(kCpus));
  CentralizedFifoPolicy::Options options;
  options.global_cpu = 0;
  options.max_group_commit = max_group;
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(),
                       std::make_unique<CentralizedFifoPolicy>(options));
  process.Start();
  for (int i = 0; i < 2 * kCpus; ++i) {
    SpawnWorker(m.kernel(), *enclave, i);
  }
  m.RunFor(Milliseconds(50));
  const uint64_t before = enclave->txns_committed();
  m.RunFor(kMeasure);
  return static_cast<double>(enclave->txns_committed() - before) / ToSeconds(kMeasure) / 1e6;
}

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  using namespace gs;
  bench::Harness harness("ablation_group_commit", argc, argv);
  if (harness.quick()) {
    kMeasure = Milliseconds(100);
  }
  harness.Param("cpus", kCpus);
  harness.Param("task_burst_us", static_cast<int64_t>(kTaskBurst / 1000));
  harness.Param("measure_ms", static_cast<int64_t>(kMeasure / 1000000));
  std::printf("Ablation: group-commit size vs global-agent throughput\n"
              "(Fig 5 setup: %d scheduled CPUs, 10us tasks, saturating load).\n\n", kCpus);
  std::printf("%12s %14s\n", "max group", "Mtxn/sec");
  harness.RunAll(1, [](bench::Run& run) {
    const std::vector<int> groups = run.quick()
                                        ? std::vector<int>{1, 8, INT32_MAX}
                                        : std::vector<int>{1, 2, 4, 8, 16, 32, INT32_MAX};
    for (int group : groups) {
      const double mtxn = Run(run, group);
      std::printf("%12d %14.3f\n", group == INT32_MAX ? 0 : group, mtxn);
      std::fflush(stdout);
      run.AddRow()
          .Set("max_group", group == INT32_MAX ? 0 : group)
          .Set("mtxn_per_sec", mtxn);
    }
  });
  std::printf("(0 = unlimited; the paper's Table 3 single-vs-10 txn numbers imply\n"
              " a 1.5M -> 2.5M/s theoretical gain from batching.)\n");
  return harness.Finish();
}
