// Secure-VM core scheduling policy (§4.5, Fig 9).
//
// The ghOSt counterpart to in-kernel core scheduling: a global agent
// schedules *physical cores*, committing synchronized transaction groups —
// one transaction per sibling CPU — that either all latch or all fail, so a
// core only ever runs vCPUs of one VM (or a forced-idle sibling). From the
// paper: "a ghOSt agent can easily schedule an entire core by performing a
// synchronized group commit for each physical core"; the policy itself is a
// partitioned-EDF-flavored scheme that guarantees each runnable VM its time
// slice per period, sharing the excess.
#ifndef GHOST_SIM_SRC_POLICIES_VM_CORE_SCHED_H_
#define GHOST_SIM_SRC_POLICIES_VM_CORE_SCHED_H_

#include <functional>
#include <map>
#include <vector>

#include "src/agent/sdk/global_agent.h"

namespace gs {

class VmCoreSchedPolicy : public GlobalAgentPolicy {
 public:
  struct Options {
    int global_cpu = -1;
    // Maps a thread to its VM (trust-domain cookie, non-zero).
    std::function<int64_t(int64_t)> cookie_of;
    // Guaranteed slice per VM per scheduling period (EDF parameters).
    Duration slice = Milliseconds(6);
  };

  explicit VmCoreSchedPolicy(Options options);

  const char* name() const override { return "vm-core-sched"; }
  void Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) override;

  uint64_t cores_scheduled() const { return cores_scheduled_; }
  uint64_t group_failures() const { return group_failures_; }

 protected:
  AgentAction Schedule(AgentContext& ctx) override;
  void TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskDeparted(AgentContext& ctx, PolicyTask* task, const Message& msg) override;

 private:
  struct Vm {
    int64_t cookie = 0;
    std::vector<PolicyTask*> threads;
    int core = -1;         // physical core it currently owns, -1 if none
    Time deadline = 0;     // EDF key
    Time placed_at = 0;
  };

  struct Core {
    int cpu_a = -1;
    int cpu_b = -1;  // -1 when SMT is off
    int64_t cookie = 0;
  };

  Vm* VmOf(int64_t tid);
  int RunnableThreads(const Vm& vm) const;
  bool CoreFullyAvailable(AgentContext& ctx, const Core& core) const;
  // Commits (up to) both siblings of `core` to `vm` as a synchronized group.
  bool PlaceVm(AgentContext& ctx, int core_index, Vm* vm);
  void ReleaseCore(Vm* vm);

  Options options_;

  std::map<int64_t, Vm> vms_;
  std::vector<Core> cores_;

  uint64_t cores_scheduled_ = 0;
  uint64_t group_failures_ = 0;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_POLICIES_VM_CORE_SCHED_H_
