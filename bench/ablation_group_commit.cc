// Ablation (§3.2): group-commit amortization.
//
// "An agent commits multiple transactions by passing all of them to the
// TXNS_COMMIT() syscall. This syscall amortizes the expensive overheads over
// several transactions. Most importantly, it amortizes the overhead of
// sending interrupts by using the batch interrupt functionality."
//
// Sweep the per-syscall transaction cap on the Fig 5 setup (56 scheduled
// Skylake CPUs, saturating round-robin load) and report agent throughput.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "bench/testbeds.h"

constexpr int kCpus = 56;

int main(int argc, char** argv) {
  using namespace gs;
  bench::Harness harness("ablation_group_commit", argc, argv);
  const Duration measure = harness.quick() ? Milliseconds(100) : Milliseconds(200);
  harness.Param("cpus", kCpus);
  harness.Param("task_burst_us", static_cast<int64_t>(bench::kFig5Burst / 1000));
  harness.Param("measure_ms", static_cast<int64_t>(measure / 1000000));
  std::printf("Ablation: group-commit size vs global-agent throughput\n"
              "(Fig 5 setup: %d scheduled CPUs, 10us tasks, saturating load).\n\n", kCpus);
  std::printf("%12s %14s\n", "max group", "Mtxn/sec");
  harness.RunAll(1, [measure](bench::Run& run) {
    const std::vector<int> groups = run.quick()
                                        ? std::vector<int>{1, 8, INT32_MAX}
                                        : std::vector<int>{1, 2, 4, 8, 16, 32, INT32_MAX};
    for (int group : groups) {
      CentralizedFifoPolicy::Options options;
      options.global_cpu = 0;
      options.max_group_commit = group;
      const double mtxn = bench::RunFig5Commit(run, Topology::IntelSkylake112(),
                                               CpuMask::AllUpTo(kCpus), options,
                                               2 * kCpus, measure);
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
