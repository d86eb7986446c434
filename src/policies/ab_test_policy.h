// A/B (canary) scheduling policy: two policy variants sharing one enclave.
//
// The paper's §3.4 upgrade story replaces the whole agent process; fleets
// additionally want to *canary* a scheduler change on a slice of threads
// before promoting it. This policy implements that split inside one
// Policy: every thread is hashed into a lane ("base" or "canary",
// canary_percent of the tid space), each lane's scheduling behavior can
// differ (the canary here runs LIFO instead of FIFO when canary_lifo is
// set — a deliberately visible behavioral delta), and all counters are kept
// per lane, both as plain members (deterministic scenario accounting) and as
// StatsRegistry counters labeled {policy=ab-base|ab-canary}.
//
// Everything else is the per-CPU FIFO policy: the lane hash, the canary's
// LIFO admission and the lane counters are all this class adds.
//
// Promote/rollback is expressed through AgentProcess::SwapPolicy: promoting
// a canary means swapping in an AbTestPolicy with canary_percent=100 (or a
// plain policy), rolling back means canary_percent=0. Lane membership is a
// pure function of the tid, so counters from a split run partition the
// single-policy run's totals exactly.
#ifndef GHOST_SIM_SRC_POLICIES_AB_TEST_POLICY_H_
#define GHOST_SIM_SRC_POLICIES_AB_TEST_POLICY_H_

#include <cstdint>

#include "src/policies/per_cpu_fifo.h"
#include "src/stats/stats.h"

namespace gs {

class AbTestPolicy : public PerCpuFifoPolicy {
 public:
  struct Options {
    // Share of the tid space routed to the canary lane, 0..100.
    int canary_percent = 10;
    // Canary behavioral delta: freshly woken canary threads go to the front
    // of their runqueue (LIFO) instead of the back.
    bool canary_lifo = false;
  };

  AbTestPolicy() : AbTestPolicy(Options()) {}
  explicit AbTestPolicy(Options options) : options_(options) {}

  const char* name() const override { return "ab-test"; }
  void Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) override;

  // Lane membership: stable hash of the tid, independent of arrival order,
  // so split-run counters partition a single-policy run's totals exactly.
  bool InCanary(int64_t tid) const;

  struct LaneCounters {
    uint64_t scheduled = 0;  // committed transactions
    uint64_t completed = 0;  // THREAD_DEAD seen for the lane
  };
  const LaneCounters& base_counters() const { return lanes_[0]; }
  const LaneCounters& canary_counters() const { return lanes_[1]; }

 protected:
  void TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskYield(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void Committed(AgentContext& ctx, PolicyTask* task) override;

 private:
  // lane index: 0 = base, 1 = canary.
  int LaneOf(int64_t tid) const { return InCanary(tid) ? 1 : 0; }
  // The canary lane's behavioral delta: LIFO admission.
  QueueAt AdmitAt(int64_t tid) const {
    return options_.canary_lifo && InCanary(tid) ? QueueAt::kFront : QueueAt::kBack;
  }

  Options options_;
  LaneCounters lanes_[2];
  // Registry mirrors, labeled per lane (survive SwapPolicy: the registry
  // hands back the same counter objects to the incoming instance).
  Counter* stat_scheduled_[2] = {nullptr, nullptr};
  Counter* stat_completed_[2] = {nullptr, nullptr};
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_POLICIES_AB_TEST_POLICY_H_
