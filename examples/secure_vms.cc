// Secure VM scheduling (§4.5): protect VMs from cross-hyperthread attacks.
//
// Runs more VMs than physical cores so the core-granular EDF policy must
// rotate whole cores between VMs via synchronized group commits, and
// verifies the L1TF/MDS mitigation invariant throughout: no physical core
// ever runs vCPUs of two different VMs at the same instant.
#include <cstdio>
#include <memory>

#include "src/agent/agent_process.h"
#include "src/policies/vm_core_sched.h"
#include "src/sim/simulation.h"
#include "src/workloads/vm_workload.h"

using namespace gs;

int main() {
  // 6 physical cores / 12 CPUs hosting 10 VMs x 2 vCPUs: heavy
  // oversubscription forces constant core rotation.
  SimulationContext machine({.topology = Topology::Make("vm-host", 1, 6, 2, 6)});
  auto enclave = machine.CreateEnclave(machine.kernel().topology().AllCpus());

  VmWorkload vms(&machine.kernel(),
                 {.num_vms = 10, .vcpus_per_vm = 2, .work_per_vcpu = Milliseconds(200)});
  VmCoreSchedPolicy::Options options;
  options.global_cpu = 0;
  options.slice = Milliseconds(6);
  VmWorkload* vms_ptr = &vms;
  options.cookie_of = [vms_ptr](int64_t tid) { return vms_ptr->CookieOf(tid); };

  AgentProcess agents(&machine.kernel(), machine.ghost_class(), enclave.get(),
                      std::make_unique<VmCoreSchedPolicy>(options));
  agents.Start();
  for (Task* vcpu : vms.vcpus()) {
    enclave->AddTask(vcpu);
  }
  vms.StartSecuritySampler(Microseconds(100));
  vms.Start();

  while (!vms.AllDone() && machine.now() < Seconds(10)) {
    machine.RunFor(Milliseconds(50));
  }

  auto* policy = static_cast<VmCoreSchedPolicy*>(agents.policy());
  std::printf("secure_vms: %d/%d vCPUs completed in %.3f s\n", vms.completed(),
              static_cast<int>(vms.vcpus().size()), ToSeconds(vms.finish_time()));
  std::printf("core placements (synchronized group commits): %llu, group failures: %llu\n",
              (unsigned long long)policy->cores_scheduled(),
              (unsigned long long)policy->group_failures());
  std::printf("cross-VM sibling co-residencies observed: %llu%s\n",
              (unsigned long long)vms.coresidency_violations(),
              vms.coresidency_violations() == 0 ? "  <- the L1TF/MDS mitigation held"
                                                : "  <- SECURITY VIOLATION");
  return vms.coresidency_violations() == 0 ? 0 : 1;
}
