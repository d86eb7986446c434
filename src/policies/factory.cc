#include "src/policies/factory.h"

#include <iterator>
#include <utility>

#include "src/base/logging.h"
#include "src/policies/ab_test_policy.h"
#include "src/policies/centralized_fifo.h"
#include "src/policies/o1.h"
#include "src/policies/per_cpu_fifo.h"
#include "src/policies/predictive_shinjuku.h"
#include "src/policies/search.h"
#include "src/policies/vm_core_sched.h"

namespace gs {
namespace {

int GlobalCpu(const PolicyConfig& config, const PolicyEnv& env) {
  return config.global_cpu >= 0 ? config.global_cpu : env.default_global_cpu;
}

std::function<int(int64_t)> TierOf(const PolicyEnv& env) {
  if (env.tier_of) {
    return env.tier_of;
  }
  return [](int64_t) { return 0; };
}

// The centralized FIFO model every Shinjuku-family kind parameterizes.
CentralizedFifoPolicy::Options Centralized(const PolicyConfig& config, const PolicyEnv& env) {
  CentralizedFifoPolicy::Options o;
  o.global_cpu = GlobalCpu(config, env);
  o.preemption_timeslice = FromUs(config.timeslice_us);
  return o;
}

using Builder = std::unique_ptr<Policy> (*)(const PolicyConfig&, const PolicyEnv&);

// The registration table: one builder per kPolicyKinds entry, in the same
// order ("cfs", last, has none).
constexpr Builder kBuilders[] = {
    // centralized_fifo
    [](const PolicyConfig& config, const PolicyEnv& env) -> std::unique_ptr<Policy> {
      return std::make_unique<CentralizedFifoPolicy>(Centralized(config, env));
    },
    // shinjuku (§4.2): preemptive centralized FIFO; requests rotate to the
    // back of the FIFO when their slice runs out.
    [](const PolicyConfig& config, const PolicyEnv& env) -> std::unique_ptr<Policy> {
      return std::make_unique<CentralizedFifoPolicy>(Centralized(config, env));
    },
    // shinjuku_shenango (§4.2): idle cycles go to batch (tier 1) threads,
    // which latency-critical wakeups preempt immediately — "merely 17 more
    // lines of code" in the paper, one classifier here.
    [](const PolicyConfig& config, const PolicyEnv& env) -> std::unique_ptr<Policy> {
      CentralizedFifoPolicy::Options o = Centralized(config, env);
      o.tier_of = TierOf(env);
      return std::make_unique<CentralizedFifoPolicy>(std::move(o));
    },
    // snap (§4.3): Snap workers get strict priority over antagonists and run
    // to completion (no timeslice; they block quickly by design).
    [](const PolicyConfig& config, const PolicyEnv& env) -> std::unique_ptr<Policy> {
      CentralizedFifoPolicy::Options o = Centralized(config, env);
      o.preemption_timeslice = 0;
      o.tier_of = TierOf(env);
      return std::make_unique<CentralizedFifoPolicy>(std::move(o));
    },
    // per_cpu_fifo
    [](const PolicyConfig&, const PolicyEnv&) -> std::unique_ptr<Policy> {
      return std::make_unique<PerCpuFifoPolicy>();
    },
    // o1
    [](const PolicyConfig& config, const PolicyEnv& env) -> std::unique_ptr<Policy> {
      O1Policy::Options o;
      o.num_priorities = config.num_priorities;
      o.base_timeslice = FromMs(config.base_timeslice_ms);
      o.min_timeslice = FromMs(config.min_timeslice_ms);
      const std::function<int(int64_t)> tier = TierOf(env);
      const int worker_prio = config.worker_priority;
      const int antagonist_prio = config.antagonist_priority;
      o.priority_of = [tier, worker_prio, antagonist_prio](int64_t tid) {
        return tier(tid) != 0 ? antagonist_prio : worker_prio;
      };
      return std::make_unique<O1Policy>(std::move(o));
    },
    // search
    [](const PolicyConfig& config, const PolicyEnv& env) -> std::unique_ptr<Policy> {
      SearchPolicy::Options o;
      o.global_cpu = GlobalCpu(config, env);
      return std::make_unique<SearchPolicy>(o);
    },
    // predictive_shinjuku
    [](const PolicyConfig& config, const PolicyEnv& env) -> std::unique_ptr<Policy> {
      PredictiveShinjukuPolicy::Options o;
      o.global_cpu = GlobalCpu(config, env);
      o.rotation_slice = FromUs(config.timeslice_us);
      o.long_threshold = FromUs(config.long_threshold_us);
      o.backstop_multiplier = config.backstop_multiplier;
      o.tier_of = TierOf(env);
      return std::make_unique<PredictiveShinjukuPolicy>(std::move(o));
    },
    // predictive_search
    [](const PolicyConfig& config, const PolicyEnv& env) -> std::unique_ptr<Policy> {
      SearchPolicy::Options o;
      o.global_cpu = GlobalCpu(config, env);
      o.predictive_placement = true;
      return std::make_unique<SearchPolicy>(o);
    },
    // vm_core_sched
    [](const PolicyConfig& config, const PolicyEnv& env) -> std::unique_ptr<Policy> {
      CHECK(env.cookie_of != nullptr)
          << "vm_core_sched needs PolicyEnv::cookie_of (a vm workload)";
      VmCoreSchedPolicy::Options o;
      o.global_cpu = GlobalCpu(config, env);
      o.slice = FromMs(config.vm_slice_ms);
      o.cookie_of = env.cookie_of;
      return std::make_unique<VmCoreSchedPolicy>(std::move(o));
    },
    // ab_test
    [](const PolicyConfig&, const PolicyEnv& env) -> std::unique_ptr<Policy> {
      return std::make_unique<AbTestPolicy>(env.ab_test);
    },
};
static_assert(std::size(kBuilders) == kPolicyKinds.size() - 1);

}  // namespace

std::unique_ptr<Policy> MakePolicy(const PolicyConfig& config, const PolicyEnv& env) {
  CHECK(config.kind != "cfs") << "\"cfs\" selects the kernel default class; "
                                 "there is no agent policy to build";
  for (size_t i = 0; i < std::size(kBuilders); ++i) {
    if (config.kind == kPolicyKinds[i]) {
      return kBuilders[i](config, env);
    }
  }
  LOG(FATAL) << "unknown policy kind \"" << config.kind << "\"";
  return nullptr;
}

}  // namespace gs
