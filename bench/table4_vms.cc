// Table 4 reproduction (§4.5): secure VM core scheduling.
//
// 32 vCPUs (16 VMs x 2) running a bwaves-like CPU-bound workload on 25
// physical cores / 50 CPUs, under three policies:
//   1. CFS            — best performance, no protection (vCPUs of different
//                       VMs may share a physical core);
//   2. in-kernel core scheduling — secure, the kernel pairs cookies;
//   3. ghOSt core scheduling     — secure, synchronized group commits.
//
// Expected shape (paper: rates 489 / 464 / 468, times 888 / 937 / 929 s):
// CFS fastest; both core schedulers a few % behind and within a whisker of
// each other; co-residency violations positive under CFS and exactly zero
// under both core schedulers.
#include <cstdio>
#include <memory>

#include "bench/harness.h"
#include "bench/machine_trace.h"
#include "src/agent/agent_process.h"
#include "src/policies/vm_core_sched.h"
#include "src/sim/simulation.h"
#include "src/workloads/vm_workload.h"

namespace gs {
namespace {

// CPU demand per vCPU; --scale=quick shrinks it (relative rates unchanged).
Duration kWork = Seconds(2);

// bwaves is memory-bandwidth-bound: SMT contention costs it ~12%, far less
// than integer codes (the paper's rates imply a mild penalty).
CostModel VmCost() {
  CostModel cost;
  cost.smt_contention_factor = 0.88;
  return cost;
}

Topology VmTopo() { return Topology::Make("vmhost-50", 1, 25, 2, 25); }

struct Result {
  double rate = 0;       // aggregate work/s ("bwaves rate"; higher better)
  double total_time = 0; // seconds until the last vCPU finishes
  uint64_t violations = 0;
};

Result Finish(SimulationContext& m, VmWorkload& vms) {
  while (!vms.AllDone() && m.now() < Seconds(600)) {
    m.RunFor(Milliseconds(100));
  }
  Result r;
  r.total_time = ToSeconds(vms.finish_time());
  // SPECrate-style metric: sum of per-copy rates (each copy demands kWork of
  // CPU work), scaled into the same ballpark as the paper's bwaves figures.
  for (Time t : vms.completions()) {
    if (t > 0) {
      r.rate += ToSeconds(kWork) / ToSeconds(t) * 16.0;
    }
  }
  r.violations = vms.coresidency_violations();
  return r;
}

Result RunCfs(bench::Run& run) {
  SimulationContext m({.topology = VmTopo(), .cost = VmCost(), .stats = &run.stats()});
  VmWorkload vms(&m.kernel(), {.work_per_vcpu = kWork});
  vms.StartSecuritySampler();
  vms.Start();
  return Finish(m, vms);
}

Result RunKernelCoreSched(bench::Run& run) {
  SimulationContext m({.topology = VmTopo(), .cost = VmCost(), .with_core_sched = true,
                       .stats = &run.stats()});
  VmWorkload vms(&m.kernel(), {.work_per_vcpu = kWork});
  for (Task* vcpu : vms.vcpus()) {
    m.kernel().SetSchedClass(vcpu, m.core_sched_class());
    m.core_sched_class()->SetCookie(vcpu, vms.CookieOf(vcpu->tid()));
  }
  vms.StartSecuritySampler();
  vms.Start();
  Result r = Finish(m, vms);
  r.violations += m.core_sched_class()->violations();
  return r;
}

Result RunGhostCoreSched(bench::Run& run) {
  SimulationContext m({.topology = VmTopo(), .cost = VmCost(), .stats = &run.stats()});
  bench::ScopedMachineTrace trace_scope(run, m.kernel());
  auto enclave = m.CreateEnclave(m.kernel().topology().AllCpus());
  VmWorkload vms(&m.kernel(), {.work_per_vcpu = kWork});
  VmCoreSchedPolicy::Options options;
  options.global_cpu = 0;
  VmWorkload* vms_ptr = &vms;
  options.cookie_of = [vms_ptr](int64_t tid) { return vms_ptr->CookieOf(tid); };
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(),
                       std::make_unique<VmCoreSchedPolicy>(options));
  process.Start();
  for (Task* vcpu : vms.vcpus()) {
    enclave->AddTask(vcpu);
  }
  vms.StartSecuritySampler();
  vms.Start();
  return Finish(m, vms);
}

void Print(bench::Run& run, const char* system, const char* name, const Result& r,
           const char* paper) {
  std::printf("%-28s rate=%6.1f  total_time=%6.3fs  coresidency_violations=%llu   (paper: %s)\n",
              name, r.rate, r.total_time, static_cast<unsigned long long>(r.violations),
              paper);
  std::fflush(stdout);
  run.AddRow()
      .Set("system", system)
      .Set("rate", r.rate)
      .Set("total_time_s", r.total_time)
      .Set("coresidency_violations", static_cast<int64_t>(r.violations))
      .Set("paper", paper);
}

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  using namespace gs;
  bench::Harness harness("table4_vms", argc, argv);
  if (harness.quick()) {
    kWork = Milliseconds(500);
  }
  harness.Param("work_per_vcpu_ms", static_cast<int64_t>(kWork / 1000000));
  std::printf("Table 4 reproduction: secure VM core scheduling.\n"
              "32 vCPUs (16 VMs x 2) on 25 cores / 50 CPUs, bwaves-like CPU-bound work.\n\n");
  harness.RunAll(1, [](bench::Run& run) {
    Print(run, "cfs", "CFS (no security)", RunCfs(run), "rate 489, 888 s");
    Print(run, "core_sched", "In-kernel Core Scheduling", RunKernelCoreSched(run),
          "rate 464, 937 s");
    Print(run, "ghost", "ghOSt Core Scheduling", RunGhostCoreSched(run),
          "rate 468, 929 s");
  });
  return harness.Finish();
}
