// PolicyConfig: the settings the policy factory (factory.h) builds a policy
// from. A scenario's "policy" block parses straight into this struct
// (scenario::PolicySpec names the same type), so each setting and each kind
// name is declared once for both the JSON schema and the factory.
//
// Header-only and dependency-free: the scenario schema includes it without
// linking the policies, and the policies never see the scenario schema.
#ifndef GHOST_SIM_SRC_POLICIES_POLICY_CONFIG_H_
#define GHOST_SIM_SRC_POLICIES_POLICY_CONFIG_H_

#include <array>
#include <string>
#include <string_view>

namespace gs {

// Every kind a PolicyConfig can name. "ab_test" splits the enclave into A/B
// lanes (configured by a scenario's top-level "ab_test" block); "cfs" comes
// last and builds no agent policy at all: the workload runs under the
// kernel's default scheduler.
inline constexpr std::array<const char*, 12> kPolicyKinds = {
    "centralized_fifo", "shinjuku", "shinjuku_shenango", "snap", "per_cpu_fifo", "o1",
    "search", "predictive_shinjuku", "predictive_search", "vm_core_sched", "ab_test", "cfs"};
static_assert(std::string_view(kPolicyKinds.back()) == "cfs");

struct PolicyConfig {
  // One of kPolicyKinds.
  std::string kind = "shinjuku";
  int global_cpu = -1;          // centralized policies; -1 = first enclave CPU
  double timeslice_us = 30;     // preemption timeslice (0 = run to completion)
  // predictive_shinjuku: predicted service >= threshold routes to the long
  // lane; predicted-shorts carry a backstop of predicted * multiplier.
  double long_threshold_us = 100;
  int backstop_multiplier = 4;
  // O1 parameters.
  int num_priorities = 8;
  double base_timeslice_ms = 6;
  double min_timeslice_ms = 1;
  int worker_priority = 1;      // priority assigned to workload threads
  int antagonist_priority = 6;  // priority assigned to enclave antagonists
  // vm_core_sched: guaranteed slice per VM per period.
  double vm_slice_ms = 6;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_POLICIES_POLICY_CONFIG_H_
