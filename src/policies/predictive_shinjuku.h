// Predictive Shinjuku: centralized request scheduling that routes
// predicted-long requests Shinjuku-style without paying the preemption
// probe (ROADMAP item 4, the KernelOracle direction).
//
// Probe-based Shinjuku (centralized_fifo.cc) cannot tell a 10 µs request
// from a 10 ms one, so it arms a 30 µs timer whenever anything is queued
// and rotates whatever is running — which mostly means preempting long
// requests over and over, and preempting them even when idle CPUs could
// have served the waiters. This policy uses a per-tid Markov service-time
// predictor (src/predict/) to classify each wakeup as short or long up
// front and exploits the classification three ways:
//
//  * Predicted-short requests run to completion: no probe timer fires for
//    them, and the agent arms a wakeup only for the backstop below.
//  * Predicted-long requests go to a separate long lane that only gets a
//    CPU when no short is waiting, and a running long is preempted only
//    when a waiter exists AND no idle CPU could serve it — the two
//    conditions probe-Shinjuku never checks.
//  * Mispredicted shorts (a long classified short) are caught by a
//    backstop: each predicted-short dispatch carries an overrun allowance
//    (predicted * multiplier, floored); exceeding it demotes the task to
//    the long lane and rotates it out. The backstop is the price of
//    skipping the probe — a mispredicted long runs unpreempted slightly
//    longer than 30 µs, once, and is long-lane forever after.
//
// Service times are observed exactly from status-word runtime deltas
// (wakeup to block), so preemptions in the middle of a request do not
// corrupt the training signal.
//
// SDK consumer: GlobalAgentPolicy hooks + FifoRunqueue lanes + the
// NextSliceWakeup arming helper. Tier-1 batch threads (Shenango-style) sit
// in a third lane below both request lanes and are preempted on demand.
#ifndef GHOST_SIM_SRC_POLICIES_PREDICTIVE_SHINJUKU_H_
#define GHOST_SIM_SRC_POLICIES_PREDICTIVE_SHINJUKU_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "src/agent/agent_context.h"
#include "src/agent/sdk/sdk.h"
#include "src/predict/estimators.h"

namespace gs {

class PredictiveShinjukuPolicy : public GlobalAgentPolicy {
 public:
  struct Options {
    // CPU hosting the global agent. -1 = first enclave CPU.
    int global_cpu = -1;
    // Predicted service at or above this is routed to the long lane.
    // Scenario key: policy.long_threshold_us.
    Duration long_threshold = Microseconds(100);
    // Slice for rotating long-lane (and demoted) tasks when someone waits;
    // the Shinjuku 30 µs. Scenario key: policy.timeslice_us.
    Duration rotation_slice = Microseconds(30);
    // Backstop allowance for predicted-shorts: predicted * multiplier,
    // floored at kMinBackstop. Scenario key: policy.backstop_multiplier.
    int backstop_multiplier = 4;
    // Maps tid -> tier (0 latency-critical, 1 batch). Default: everything 0.
    std::function<int(int64_t)> tier_of;
    predict::ServiceTimePredictor::Options predictor;
  };

  PredictiveShinjukuPolicy() : PredictiveShinjukuPolicy(Options()) {}
  explicit PredictiveShinjukuPolicy(Options options);

  const char* name() const override { return "predictive-shinjuku"; }
  void Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) override;
  void Restore(const std::vector<Enclave::TaskInfo>& dump) override;

  // Statistics.
  uint64_t preemptions() const { return preemptions_; }
  uint64_t predicted_short() const { return predicted_short_; }
  uint64_t predicted_long() const { return predicted_long_; }
  uint64_t backstop_demotions() const { return backstop_demotions_; }
  size_t queue_depth() const {
    return lanes_[0].size() + lanes_[1].size() + lanes_[2].size();
  }
  int RunqueueDepth() const override { return static_cast<int>(queue_depth()); }
  const predict::ServiceTimePredictor& predictor() const { return predictor_; }

 protected:
  AgentAction Schedule(AgentContext& ctx) override;
  void TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskPreempted(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskYield(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) override;
  void TaskDeparted(AgentContext& ctx, PolicyTask* task, const Message& msg) override;

 private:
  // Lanes, in strict dispatch-priority order.
  enum Lane { kShort = 0, kLong = 1, kBatch = 2, kNumLanes = 3 };
  // Floor of a predicted-short's backstop allowance.
  static constexpr Duration kMinBackstop = Microseconds(20);

  // Per-task predictive state, owned here and linked from PolicyTask::user.
  struct PredTask {
    int lane = kShort;
    // Status-word runtime at the start of the current service interval;
    // the delta at block time is the exact observed service.
    int64_t wake_runtime = 0;
    // Overrun allowance for this dispatch (backstop for shorts, rotation
    // slice for longs/batch).
    Duration allowance = 0;
    int on_cpu = -1;  // policy belief, for running_[] upkeep
  };

  struct Running {
    PolicyTask* task = nullptr;
    Time since = 0;
  };

  PredTask& StateOf(PolicyTask* task) {
    return *static_cast<PredTask*>(task->user);
  }
  PredTask& AttachState(PolicyTask* task);
  // Classifies the upcoming service interval and records the training
  // baseline from the status word.
  void ClassifyWakeup(AgentContext& ctx, PolicyTask* task);
  void ObserveService(AgentContext& ctx, PolicyTask* task);
  void Enqueue(PolicyTask* task, bool front);
  void Dequeue(PolicyTask* task);
  void ClearRunning(PolicyTask* task);
  PolicyTask* PopNext();
  PolicyTask* PopRequestLane();  // short then long, never batch

  Options options_;

  predict::ServiceTimePredictor predictor_;
  FifoRunqueue lanes_[kNumLanes];
  std::vector<Running> running_;  // dense cpu -> policy belief
  std::map<int64_t, PredTask> states_;

  uint64_t preemptions_ = 0;
  uint64_t predicted_short_ = 0;
  uint64_t predicted_long_ = 0;
  uint64_t backstop_demotions_ = 0;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_POLICIES_PREDICTIVE_SHINJUKU_H_
