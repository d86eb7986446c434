// The one construction path for every named policy.
//
// `MakePolicy` maps a PolicyConfig (policy_config.h) plus a PolicyEnv (the
// runtime classifiers a config cannot carry — tid -> tier, tid -> cookie) to
// a ready-to-attach `Policy`. The scenario runner, the benches, the examples
// and the tests all build named policies through it; the paper's Shinjuku,
// Shinjuku+Shenango and Snap policies (§4.2-4.3) are rows of its table, thin
// settings of the centralized FIFO model.
//
// Authoring surface: a new policy subclasses `Policy` (src/agent/policy.h),
// whose typed message hooks are the only way to write one — the base owns
// the agent loop — or the SDK's `GlobalAgentPolicy` for the centralized
// shape, then gets a kind name in kPolicyKinds and a builder in factory.cc.
#ifndef GHOST_SIM_SRC_POLICIES_FACTORY_H_
#define GHOST_SIM_SRC_POLICIES_FACTORY_H_

#include <cstdint>
#include <functional>
#include <memory>

#include "src/agent/policy.h"
#include "src/policies/ab_test_policy.h"
#include "src/policies/policy_config.h"

namespace gs {

// Runtime context a PolicyConfig needs to become a Policy: classifiers over
// tids and the enclave's CPU plan. Everything is optional except
// default_global_cpu; a null classifier means "everything is tier 0 /
// cookie = tid".
struct PolicyEnv {
  // Home CPU for centralized policies when config.global_cpu < 0
  // (conventionally the first enclave CPU).
  int default_global_cpu = 0;
  // Two-tier policies (shinjuku_shenango, snap): 0 = latency-critical,
  // 1 = batch. The scenario runner classifies enclave antagonist tids as
  // tier 1.
  std::function<int(int64_t)> tier_of;
  // vm_core_sched: trust-domain cookie of a thread.
  std::function<int64_t(int64_t)> cookie_of;
  // ab_test: the starting lane split.
  AbTestPolicy::Options ab_test;
};

// Builds the policy for `config.kind`. CHECK-fails on "cfs" (callers decide
// not to start an agent instead) and on unknown kinds — the scenario parser
// rejects those before a config can reach this point.
std::unique_ptr<Policy> MakePolicy(const PolicyConfig& config, const PolicyEnv& env);

}  // namespace gs

#endif  // GHOST_SIM_SRC_POLICIES_FACTORY_H_
