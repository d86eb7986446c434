// Fig 5 reproduction (§4.1): scalability of a single global agent.
//
// "To show how a global agent scales, we analyze a simple round-robin
// policy. The policy manages all threads in a FIFO runqueue, scheduling them
// on CPUs as soon as CPUs become idle. The agent groups as many transactions
// as possible per commit."
//
// Sweep: number of scheduled CPUs on the Skylake (112 CPU) and Haswell
// (72 CPU) parts. CPUs are added in the order local-socket cores, local
// hyperthreads, remote cores, remote hyperthreads, so the three regimes of
// the paper's figure appear in sequence:
//   ❶ linear ramp while the agent keeps up,
//   ❷ a dip when a worker lands on the agent's SMT sibling and contends for
//     the physical core's pipeline,
//   ❸ degradation as remote-socket CPUs add cross-NUMA commit costs.
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "bench/testbeds.h"

namespace gs {
namespace {

constexpr Duration kMeasure = Milliseconds(300);

// CPU fill order: agent's socket cores first (skipping the agent CPU), then
// its hyperthreads (the agent's sibling first — the ❷ dip), then the remote
// socket.
std::vector<int> FillOrder(const Topology& topo, int agent_cpu) {
  std::vector<int> order;
  const int agent_numa = topo.cpu(agent_cpu).numa;
  auto add = [&](bool primary, int numa) {
    for (const CpuInfo& cpu : topo.cpus()) {
      if (cpu.id == agent_cpu || cpu.numa != numa) {
        continue;
      }
      if ((cpu.smt_index == 0) == primary) {
        order.push_back(cpu.id);
      }
    }
  };
  add(/*primary=*/true, agent_numa);
  add(/*primary=*/false, agent_numa);  // includes the agent's sibling
  for (int numa = 0; numa < topo.num_numa_nodes(); ++numa) {
    if (numa != agent_numa) {
      add(true, numa);
      add(false, numa);
    }
  }
  return order;
}

void RecordPoint(bench::Run& run, const char* machine, const Topology& topo, int n) {
  const int agent_cpu = 0;
  const std::vector<int> order = FillOrder(topo, agent_cpu);
  CpuMask cpus = CpuMask::Single(agent_cpu);
  for (int i = 0; i < n && i < static_cast<int>(order.size()); ++i) {
    cpus.Set(order[i]);
  }
  CentralizedFifoPolicy::Options options;
  options.global_cpu = agent_cpu;
  // ~2 runnable workers per scheduled CPU keeps every CPU saturated.
  const double mtxn = bench::RunFig5Commit(run, topo, cpus, options, 2 * n, kMeasure);
  std::printf("%8d %14.3f\n", n, mtxn);
  std::fflush(stdout);
  run.AddRow().Set("machine", machine).Set("cpus", n).Set("mtxn_per_sec", mtxn);
}

void RunMachine(bench::Run& run, const char* label, const char* machine,
                const Topology& topo) {
  std::printf("\n-- %s --\n%8s %14s\n", label, "cpus", "Mtxn/sec");
  const int max = topo.num_cpus() - 1;
  const int stride = run.quick() ? 16 : 4;
  for (int n = 4; n <= max; n += stride) {
    RecordPoint(run, machine, topo, n);
  }
  RecordPoint(run, machine, topo, max);
}

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  gs::bench::Harness harness("fig5_scalability", argc, argv);
  harness.Param("task_burst_us", static_cast<int64_t>(gs::bench::kFig5Burst / 1000));
  harness.Param("measure_ms", static_cast<int64_t>(gs::kMeasure / 1000000));
  std::printf("Fig 5 reproduction: global agent scalability (round-robin policy,\n"
              "%lld us tasks, group commits). Expect ramp, SMT dip, NUMA droop.\n",
              static_cast<long long>(gs::bench::kFig5Burst / 1000));
  harness.RunAll(1, [](gs::bench::Run& run) {
    gs::RunMachine(run, "Skylake (112 CPUs)", "skylake112",
                   gs::Topology::IntelSkylake112());
    gs::RunMachine(run, "Haswell (72 CPUs)", "haswell72",
                   gs::Topology::IntelHaswell72());
  });
  return harness.Finish();
}
