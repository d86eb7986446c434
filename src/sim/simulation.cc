#include "src/sim/simulation.h"

#include <utility>
#include <vector>

namespace gs {

SimulationContext::SimulationContext(Options options)
    : owned_stats_(options.stats == nullptr ? std::make_unique<StatsRegistry>() : nullptr),
      stats_(options.stats != nullptr ? options.stats : owned_stats_.get()),
      kernel_(&loop_, std::move(options.topology), options.cost, stats_) {
  std::vector<std::unique_ptr<SchedClass>> classes;
  auto install = [&classes](auto cls) {
    auto* raw = cls.get();
    classes.push_back(std::move(cls));
    return raw;
  };
  agent_class_ = install(std::make_unique<AgentClass>());
  mq_class_ = install(std::make_unique<MicroQuantaClass>());
  if (options.with_core_sched) {
    core_sched_class_ = install(std::make_unique<CoreSchedClass>());
  }
  const int default_index = static_cast<int>(classes.size());
  cfs_class_ = install(std::make_unique<CfsClass>());
  ghost_class_ = install(std::make_unique<GhostClass>());
  kernel_.InstallClasses(std::move(classes), default_index);

  if (options.enable_stats) {
    stats_->Enable();
  }
  if (options.faults.has_value()) {
    // The injector gets its own seed stream (derived, so faults and workload
    // sampling stay decoupled) and records into this context's registry.
    fault_injector_ = std::make_unique<FaultInjector>(
        &loop_, &kernel_.trace(), options.seed ^ 0x5eedfa17bad5eedULL, *options.faults, stats_);
    kernel_.set_fault_injector(fault_injector_.get());
  }
}

SimulationContext::~SimulationContext() {
  // The fault injector must outlive nothing that might fire into it: tear it
  // off the kernel before members destruct in reverse order.
  if (fault_injector_ != nullptr) {
    kernel_.set_fault_injector(nullptr);
  }
}

std::unique_ptr<AgentProcess> SimulationContext::CreateAgentProcess(
    Enclave* enclave, std::unique_ptr<Policy> policy) {
  return std::make_unique<AgentProcess>(&kernel_, ghost_class_, enclave, std::move(policy));
}

}  // namespace gs
