// One construction surface for every scenario-selectable policy.
//
// Before this factory, each entry point (scenario runner, benches) hand-rolled
// its own if/else ladder from PolicySpec to a concrete policy, so adding a
// policy meant touching every ladder. Now all eight scenario kinds construct
// through the same table: `MakeScenarioPolicy` maps a parsed `PolicySpec` plus
// a `PolicyEnv` (the runtime classifiers a spec cannot carry — tid -> tier,
// tid -> cookie) to a ready-to-attach `Policy`.
//
// Authoring surface: a new policy subclasses `Policy` (src/agent/policy.h),
// whose typed message hooks are the only way to write one — the base owns
// the agent loop — or the SDK's `GlobalAgentPolicy` for the centralized
// shape, and is added to the factory table in factory.cc.
#ifndef GHOST_SIM_SRC_POLICIES_FACTORY_H_
#define GHOST_SIM_SRC_POLICIES_FACTORY_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/agent/policy.h"
#include "src/scenario/scenario.h"

namespace gs {

// Runtime context a PolicySpec needs to become a Policy: classifiers over
// tids and the enclave's CPU plan. Everything is optional except
// default_global_cpu; a null classifier means "everything is tier 0 /
// cookie = tid".
struct PolicyEnv {
  // Home CPU for centralized policies when spec.global_cpu < 0
  // (conventionally the first enclave CPU).
  int default_global_cpu = 0;
  // Two-tier policies (shinjuku_shenango, snap): 0 = latency-critical,
  // 1 = batch. The scenario runner classifies enclave antagonist tids as
  // tier 1.
  std::function<int(int64_t)> tier_of;
  // vm_core_sched: trust-domain cookie of a thread.
  std::function<int64_t(int64_t)> cookie_of;
  // ab_test: the scenario's A/B block (borrowed); nullptr = default lanes.
  const scenario::AbTestSpec* ab_test = nullptr;
};

// Sorted names of every kind the factory can build. "cfs" is not in the
// list: it selects the kernel default class, i.e. no agent policy at all.
std::vector<std::string> RegisteredPolicyKinds();
bool HasPolicyKind(const std::string& kind);

// Builds the policy for `spec.kind`. CHECK-fails on "cfs" (callers decide
// not to start an agent instead) and on unknown kinds — the scenario parser
// rejects those before a spec can reach this point.
std::unique_ptr<Policy> MakeScenarioPolicy(const scenario::PolicySpec& spec,
                                           const PolicyEnv& env);

}  // namespace gs

#endif  // GHOST_SIM_SRC_POLICIES_FACTORY_H_
