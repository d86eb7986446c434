// Cluster: a fleet of MachineSims behind a front-end load balancer.
//
// Ownership: Cluster -> N MachineSim -> SimulationContext -> Kernel. The
// cluster also owns the front end (its own EventLoop, the LoadBalancer, the
// session/leaf RNG streams, the end-to-end latency recorder) and the
// NetworkModel connecting all N+1 nodes.
//
// Execution is conservative-lookahead lockstep (see network.h): the run is
// cut into epochs no longer than the minimum link latency; each epoch every
// node's loop advances independently (nodes share nothing mid-epoch), then
// the barrier flushes cross-node messages in canonical order and applies any
// link state changes scheduled at that instant. With jobs J >= 2 the nodes
// advance on J workers that live for the whole run (node k on worker k mod
// J; the calling thread is worker 0); with J <= 1 no thread is started.
// Results are byte-identical for every --jobs value.
//
// A spec without a fleet block is the degenerate one-node cluster: one
// MachineSim borrowing the caller's registry, run via RunLocal() — the
// pre-fleet RunScenario path, byte-for-byte.
#ifndef GHOST_SIM_SRC_FLEET_CLUSTER_H_
#define GHOST_SIM_SRC_FLEET_CLUSTER_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/base/rng.h"
#include "src/fleet/load_balancer.h"
#include "src/fleet/machine_sim.h"
#include "src/fleet/network.h"
#include "src/scenario/scenario.h"
#include "src/scenario/scenario_runner.h"
#include "src/sim/event_loop.h"
#include "src/workloads/latency_recorder.h"
#include "src/workloads/request_service.h"

namespace gs {
namespace fleet {

class Cluster {
 public:
  // `stats`: harness registry to record into (nullptr = no metrics), left
  // enabled or disabled as its owner set it. In fleet mode each machine owns
  // a private registry (so epochs can run on threads), enabled iff `stats`
  // is, and the cluster merges them into `stats` in machine order at collect
  // time. `jobs` is the number of epoch workers (0: one per hardware
  // thread), at most one per node; results are independent of it.
  Cluster(const scenario::ScenarioSpec& spec, StatsRegistry* stats, int jobs);
  ~Cluster();

  scenario::ScenarioResult Run();

  int num_machines() const { return static_cast<int>(machines_.size()); }

 private:
  void BuildFleet();
  void RunFleet();
  void CollectFleet(scenario::ScenarioResult* result);
  // Front-end arrival: route, dispatch over the network, fan out, respond.
  void OnArrival(Duration root_service);
  void OnMachineRequest(int machine, Time arrival, Duration root_service,
                        std::shared_ptr<std::vector<Duration>> leaf_services);
  void Respond(int machine, Time arrival);

  scenario::ScenarioSpec spec_;
  StatsRegistry* stats_;
  int jobs_;
  bool fleet_mode_;

  std::vector<std::unique_ptr<MachineSim>> machines_;

  // Fleet-mode state (untouched on the degenerate path).
  std::unique_ptr<EventLoop> frontend_loop_;
  std::unique_ptr<NetworkModel> network_;
  std::unique_ptr<LoadBalancer> balancer_;
  std::unique_ptr<PhasedLoad> load_;
  Rng session_rng_;
  Rng leaf_rng_;
  LatencyRecorder e2e_;
  int64_t completed_ = 0;
  int64_t completed_at_warmup_ = 0;
  int64_t shed_ = 0;
  int64_t request_bytes_ = 0;
  int64_t response_bytes_ = 0;
  // Sorted unique times at which link state changes (extra epoch cuts).
  std::vector<Time> link_cuts_;
};

}  // namespace fleet
}  // namespace gs

#endif  // GHOST_SIM_SRC_FLEET_CLUSTER_H_
