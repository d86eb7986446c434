// The Google Search policy (§4.4).
//
// Centralized model, one global agent scheduling all 256 CPUs of the AMD
// Rome machine. From the paper:
//  * "The global agent maintains a min-heap ordered by thread runtime, where
//    threads with the least elapsed runtime are picked for execution first."
//  * At startup it builds a model of the machine topology (sysfs there, the
//    Topology object here).
//  * Placement searches inside-out from where the thread last ran: same
//    L1/L2 (core), then CCX (L3), then nearest-neighbour CCX, then the
//    socket — "to avoid expensive thread migration costs due to high
//    inter-CCX communication latencies". That search is the SDK's
//    TieredPlacer (src/agent/sdk/placement.h), including §4.4's bespoke
//    keep-pending-up-to-100us optimization.
//  * NUMA preferences arrive as cpumasks via sched_setaffinity /
//    THREAD_CREATED messages; the agent intersects them with the idle set
//    and skips threads whose preferred CPUs are busy, revisiting them on the
//    next loop iteration.
//
// Predictive placement (ROADMAP item 4): with Options::predictive_placement
// a WakeupAffinityPredictor learns each thread's modal CCX from where it
// actually runs; when a thread has drifted off its home CCX (migrated under
// pressure) the prediction pulls it back to its warm-history CCX instead of
// fanning out blindly from the drifted position.
#ifndef GHOST_SIM_SRC_POLICIES_SEARCH_H_
#define GHOST_SIM_SRC_POLICIES_SEARCH_H_

#include <vector>

#include "src/agent/sdk/sdk.h"
#include "src/predict/estimators.h"

namespace gs {

class SearchPolicy : public GlobalAgentPolicy {
 public:
  struct Options {
    int global_cpu = -1;
    // Placement tiers (the ablation bench disables these).
    bool ccx_aware = true;
    // Keep a thread pending this long before accepting a cache-cold CPU
    // (0 = migrate immediately).
    Duration max_pending_before_migrate = Microseconds(100);
    // Feed TieredPlacer CCX hints from a per-tid wakeup-affinity predictor.
    bool predictive_placement = false;
  };

  SearchPolicy() : SearchPolicy(Options()) {}
  explicit SearchPolicy(Options options);

  const char* name() const override {
    return options_.predictive_placement ? "predictive-search" : "search";
  }
  void Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) override;
  void Restore(const std::vector<Enclave::TaskInfo>& dump) override;

  uint64_t deferred_for_warmth() const { return placer_.deferred(); }
  uint64_t hint_hits() const { return placer_.hint_hits(); }
  int RunqueueDepth() const override { return static_cast<int>(runqueue_.size()); }

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
  void EnqueueRunnable(AgentContext& ctx, PolicyTask* task);

  Options options_;
  Kernel* kernel_ = nullptr;

  MinRunqueue runqueue_;  // keyed by elapsed runtime (with sleeper floor)
  TieredPlacer placer_;
  predict::WakeupAffinityPredictor affinity_;
  int64_t max_runtime_seen_ = 0;
  // Sleeper-floor window: effectively unbounded reproduces the paper's plain
  // least-runtime heap; benchmarks may tighten it.
  Duration sleeper_window_ = Seconds(3600);
  // Iteration scratch, reused across Schedule() calls: the global agent
  // loops millions of times per run, so it keeps its capacity.
  std::vector<std::pair<int64_t, PolicyTask*>> scratch_ordered_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_POLICIES_SEARCH_H_
