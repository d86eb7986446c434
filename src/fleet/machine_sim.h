// One scenario-configured machine, lifted out of the old monolithic
// RunScenario so a Cluster can own N of them.
//
// A MachineSim builds the full single-machine stack in the same order the
// scenario runner always has — SimulationContext, workload threads,
// antagonist, policy (via the policy factory) + enclave + agent process,
// thread placement, load generators, fault plan, invariant checker, the
// warmup metrics reset — and then exposes two ways to run it:
//
//  * RunLocal(): the degenerate one-node cluster. Runs the whole scenario on
//    the context, exactly byte-for-byte what RunScenario did before the
//    fleet layer existed (the existing goldens pin this).
//  * AdvanceUntil(t): lockstep epoch advancement driven by a Cluster. In
//    fleet mode the machine has no local load generators; requests arrive
//    from the network via SubmitRequest().
//
// A MachineSim is single-threaded like the context it owns; a Cluster may
// advance different machines on different threads because they share
// nothing (each fleet machine owns its StatsRegistry, merged at collect).
#ifndef GHOST_SIM_SRC_FLEET_MACHINE_SIM_H_
#define GHOST_SIM_SRC_FLEET_MACHINE_SIM_H_

#include <memory>
#include <set>
#include <vector>

#include "src/scenario/scenario.h"
#include "src/scenario/scenario_runner.h"
#include "src/sim/simulation.h"
#include "src/verify/invariants.h"
#include "src/workloads/batch.h"
#include "src/workloads/latency_recorder.h"
#include "src/workloads/request_service.h"
#include "src/workloads/vm_workload.h"

namespace gs {
namespace fleet {

// The workload's open-loop arrivals, alike on a single machine and at a
// fleet's front end: its service-time model, and one Poisson generator per
// phase with qps > 0, started at the phase's offset. Phase k draws from seed
// + 1000003 * k.
class PhasedLoad {
 public:
  explicit PhasedLoad(const scenario::ServiceSpec& service);

  ServiceTimeModel& service() { return *service_; }
  // Schedules the phases on `loop`; every arrival goes to `sink`.
  void Start(const std::vector<scenario::LoadPhase>& phases, uint64_t seed, EventLoop* loop,
             const std::function<void(Time, Duration)>& sink);
  // Arrivals so far, over all phases.
  int64_t generated() const;

 private:
  std::unique_ptr<ServiceTimeModel> service_;
  std::vector<std::unique_ptr<PoissonLoadGen>> gens_;
};

class MachineSim {
 public:
  struct Options {
    // Borrowed registry (the single-machine path), left enabled or disabled
    // as its owner set it; nullptr = the context owns one, enabled iff
    // collect_stats (the fleet path, where per-machine registries merge into
    // the harness registry at collect time).
    StatsRegistry* stats = nullptr;
    bool collect_stats = false;
    // Fleet mode: no local load generation; requests arrive via
    // SubmitRequest() from the network.
    bool fleet_mode = false;
  };

  MachineSim(const scenario::ScenarioSpec& spec, const Options& options);

  EventLoop& loop() { return ctx_->loop(); }
  StatsRegistry& stats() { return ctx_->stats(); }
  Time now() const { return ctx_->now(); }

  // Degenerate path: run warmup+measure+drain in one go (byte-identical to
  // the pre-fleet RunScenario).
  void RunLocal();
  // Lockstep path: run this machine's loop up to and including `t`.
  void AdvanceUntil(Time t) { ctx_->loop().RunUntil(t); }

  // Fleet request entry, called on this machine's loop at RPC delivery time.
  void SubmitRequest(Duration service, ThreadPoolServer::CompletionFn done);

  // Final invariant sweep; call once after the last advance.
  void FinishChecks();

  // Single-machine result: the full metric set under the historical keys.
  void CollectLocal(scenario::ScenarioResult* result);
  // Fleet contribution: per-machine keys prefixed m<index>_, plus shared
  // fault/invariant aggregates.
  void CollectFleet(scenario::ScenarioResult* result, int index);

  // Cross-machine RPC bookkeeping, bumped by the cluster's delivery
  // callbacks (which run on this machine's loop).
  int64_t rpcs_received = 0;

 private:
  scenario::ScenarioSpec spec_;
  Duration warmup_;
  Duration measure_;
  Duration drain_;
  bool is_vm_ = false;
  bool use_ghost_ = false;
  bool with_antagonist_ = false;
  int cpu_count_ = 0;
  std::unique_ptr<SimulationContext> ctx_;
  std::unique_ptr<ThreadPoolServer> server_;
  std::unique_ptr<VmWorkload> vm_;
  std::unique_ptr<BatchApp> antagonist_;
  std::shared_ptr<std::set<int64_t>> antagonist_tids_;
  std::unique_ptr<Enclave> enclave_;
  std::unique_ptr<AgentProcess> process_;
  // Policies hot-swapped out by the A/B promote/rollback plan; kept so their
  // per-lane counters can be summed at collect time.
  std::vector<std::unique_ptr<Policy>> retired_policies_;
  std::unique_ptr<PhasedLoad> load_;  // local load only (not in fleet mode)
  LatencyRecorder group_latency_;  // fan-out group completion latency
  Rng fanout_rng_;
  std::unique_ptr<InvariantChecker> checker_;
  int64_t completed_at_warmup_ = 0;
};

}  // namespace fleet
}  // namespace gs

#endif  // GHOST_SIM_SRC_FLEET_MACHINE_SIM_H_
