// SimulationContext: one whole simulated machine as a single owned value.
//
// Historically the simulator leaned on process-global state (one implicit
// stats registry per process), which forced every multi-run workload —
// multi-seed bench sweeps, explorer walks, the chaos battery — to execute
// serially. A SimulationContext makes ownership explicit, in the same spirit
// as upstream ghost-userspace hanging everything off an Enclave/Scheduler
// object: the context constructs and owns the EventLoop, the Kernel with the
// class stack the paper's testbeds run,
//   agent (RT) > MicroQuanta > [in-kernel core scheduling] > CFS (default) > ghOSt,
// the StatsRegistry, and an optional FaultInjector. Components receive their
// registry/loop through the context instead of reaching for a global. It is
// the only way to build a simulated host: tests, benches, examples and the
// fleet layer all construct one, e.g.
//   SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
//
// Thread-safety contract: a context is single-threaded internally and shares
// NOTHING with other contexts. Construct, run, inspect, and destroy it on
// one thread; put independent contexts on independent threads freely (that
// is what BatchRunner does). Two contexts built with the same Options and
// seed produce byte-identical results regardless of what other contexts are
// doing on other threads. Explicit StatsRegistry* injection is the only
// metrics path — there is no thread-local or process-global registry.
#ifndef GHOST_SIM_SRC_SIM_SIMULATION_H_
#define GHOST_SIM_SRC_SIM_SIMULATION_H_

#include <memory>
#include <optional>

#include "src/agent/agent_process.h"
#include "src/agent/policy.h"
#include "src/ghost/enclave.h"
#include "src/ghost/ghost_class.h"
#include "src/kernel/agent_class.h"
#include "src/kernel/cfs.h"
#include "src/kernel/core_sched.h"
#include "src/kernel/kernel.h"
#include "src/kernel/microquanta.h"
#include "src/sim/event_loop.h"
#include "src/sim/fault_injector.h"
#include "src/stats/stats.h"

namespace gs {

class SimulationContext {
 public:
  struct Options {
    Topology topology = Topology::Make("sim", 1, 4, 1, 4);
    CostModel cost = CostModel();
    // Insert the in-kernel core-scheduling class between MicroQuanta and CFS.
    bool with_core_sched = false;
    // Base seed for this run; the fault injector (when configured) derives
    // its stream from it.
    uint64_t seed = 1;
    // Whether metric updates are recorded. Off by default, preserving the
    // zero-overhead instrumentation path.
    bool enable_stats = false;
    // When set, a FaultInjector with this config is constructed and
    // installed on the kernel.
    std::optional<FaultInjector::Config> faults = std::nullopt;
    // Registry to record into instead of a context-owned one (borrowed, not
    // owned). A bench harness passes its per-run registry here so one
    // registry accumulates a whole sweep of contexts. nullptr => the context
    // owns its registry.
    StatsRegistry* stats = nullptr;
  };

  explicit SimulationContext(Options options);
  ~SimulationContext();

  SimulationContext(const SimulationContext&) = delete;
  SimulationContext& operator=(const SimulationContext&) = delete;

  // ---- Owned components -----------------------------------------------------
  EventLoop& loop() { return loop_; }
  Kernel& kernel() { return kernel_; }
  const Topology& topology() const { return kernel_.topology(); }
  StatsRegistry& stats() { return *stats_; }
  // nullptr unless Options::faults was set.
  FaultInjector* fault_injector() { return fault_injector_.get(); }

  AgentClass* agent_class() { return agent_class_; }
  MicroQuantaClass* mq_class() { return mq_class_; }
  CfsClass* cfs_class() { return cfs_class_; }
  GhostClass* ghost_class() { return ghost_class_; }
  // nullptr unless Options::with_core_sched was set.
  CoreSchedClass* core_sched_class() { return core_sched_class_; }

  // ---- ghOSt setup ----------------------------------------------------------
  std::unique_ptr<Enclave> CreateEnclave(const CpuMask& cpus,
                                         Enclave::Config config = Enclave::Config()) {
    return std::make_unique<Enclave>(&kernel_, ghost_class_, agent_class_, cpus, config);
  }
  // Convenience: an agent process over `enclave` running `policy`, wired to
  // this context's kernel/ghost class. Not started.
  std::unique_ptr<AgentProcess> CreateAgentProcess(Enclave* enclave,
                                                   std::unique_ptr<Policy> policy);

  // ---- Execution ------------------------------------------------------------
  void RunFor(Duration d) { loop_.RunFor(d); }
  Time now() const { return loop_.now(); }

 private:
  // Owned registry unless Options::stats borrowed an external one.
  std::unique_ptr<StatsRegistry> owned_stats_;
  StatsRegistry* stats_;
  EventLoop loop_;
  Kernel kernel_;
  AgentClass* agent_class_ = nullptr;
  MicroQuantaClass* mq_class_ = nullptr;
  CfsClass* cfs_class_ = nullptr;
  GhostClass* ghost_class_ = nullptr;
  CoreSchedClass* core_sched_class_ = nullptr;
  std::unique_ptr<FaultInjector> fault_injector_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_SIM_SIMULATION_H_
