// Declarative scenario descriptions: simulation composition as data.
//
// Following gem5's standard-library idea, a scenario composes everything a
// runnable simulation needs — topology preset x policy x workload mix x load
// shape x fault plan x invariant checking — into one JSON document, so new
// policies and fleet features can be swept against a curated battery of
// production-shaped situations without writing a bench. The harness loads a
// scenario by built-in name or file path (`--scenario=<name|file.json>`),
// and the golden-expectation suite (tests/scenario_runner) pins every
// built-in scenario's deterministic verdicts.
//
// Parsing is strict, in the same spirit as the bench harness's flag
// validation: an unknown key, a missing required field, or a wrong-typed
// value is an error naming the offending key — a typo can never silently
// run the wrong configuration. `ScenarioSpec::ToJson()` re-renders the
// spec so parse -> ToJson -> parse is the identity (round-trip tested).
#ifndef GHOST_SIM_SRC_SCENARIO_SCENARIO_H_
#define GHOST_SIM_SRC_SCENARIO_SCENARIO_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "src/base/json.h"
#include "src/policies/policy_config.h"

namespace gs {
namespace scenario {

// ---- Component specs --------------------------------------------------------

struct TopologySpec {
  // "e5_24", "skylake112", "haswell72", "rome256", or "custom" (which uses
  // the fields below; they are rejected for presets).
  std::string preset = "custom";
  int sockets = 1;
  int cores_per_socket = 4;
  int smt = 2;
  int cores_per_ccx = 4;
};

// The "policy" block is the factory's own config (src/policies), so the
// schema and the factory share one declaration of every setting and kind.
using PolicySpec = PolicyConfig;

struct ServiceSpec {
  // "fixed" | "bimodal" | "exponential".
  std::string model = "bimodal";
  double fixed_us = 10;  // fixed
  double short_us = 10;  // bimodal
  double long_us = 10000;
  double p_long = 0.005;
  double mean_us = 10;  // exponential
};

struct LoadPhase {
  double duration_ms = 0;
  double qps = 0;  // open-loop Poisson arrival rate during the phase
};

struct WorkloadSpec {
  // "request_service" (thread-pool server + phased Poisson load) or
  // "vm" (Table 4's vCPU workload: fixed CPU work per vCPU).
  std::string kind = "request_service";
  // request_service:
  int num_workers = 50;
  int fanout = 1;  // >1: each arrival fans out into `fanout` sub-requests
                   // and the group completes at the max sub-latency
  ServiceSpec service;
  std::vector<LoadPhase> phases;
  // vm:
  int num_vms = 4;
  int vcpus_per_vm = 2;
  double work_per_vcpu_ms = 20;
};

struct AntagonistSpec {
  int threads = 0;  // 0 = no antagonist
  // "cfs": nice'd best-effort threads outside the enclave (fig 6's batch
  // app). "enclave": ghOSt-managed threads in the low tier / low priority.
  std::string placement = "cfs";
  int nice = 19;        // cfs placement only
  double chunk_us = 500;
};

struct FaultEventSpec {
  double at_ms = 0;
  // "agent_crash" | "agent_stall" | "agent_recover" | "enclave_destroy".
  std::string kind;
};

struct FaultsSpec {
  // Probabilistic faults fire only inside [window_start_ms, window_end_ms);
  // window_end_ms < 0 means "never closes".
  double window_start_ms = 0;
  double window_end_ms = -1;
  double ipi_delay_probability = 0;
  double ipi_drop_probability = 0;
  double msg_drop_probability = 0;
  double estale_probability = 0;
  std::vector<FaultEventSpec> plan;  // scheduled one-shot faults
};

struct EnclaveSpec {
  // CPUs [cpu_first, cpu_first + cpu_count). cpu_count -1 = all remaining
  // CPUs from cpu_first up. CPU 0 is conventionally left to the load
  // generator / housekeeping, matching the bench setups.
  int cpu_first = 1;
  int cpu_count = -1;
  double watchdog_timeout_ms = 0;  // 0 = watchdog disabled
  double watchdog_period_ms = 10;
};

struct InvariantsSpec {
  bool enabled = true;
  double period_us = 250;
  // Starvation bound for watchdog-less enclaves (0 = skip that check).
  double ghost_starvation_bound_ms = 0;
};

// ---- A/B hot-swap and policy-fuzzer specs -----------------------------------

struct AbCanarySpec {
  // Share of the tid space hashed into the canary lane, 0..100.
  int percent = 10;
  // Canary behavioral delta: freshly woken canary threads are admitted LIFO.
  bool lifo = false;
};

// Live A/B hot-swap (policy.kind must be "ab_test"): the enclave starts with
// the lanes split per `canary`, then the run optionally *promotes* the canary
// (hot-swaps in an instance with canary at 100%) and/or *rolls back* (canary
// at 0%) via AgentProcess::SwapPolicy — the §3.4 upgrade path — while the
// workload keeps running. Per-lane counters land in the scenario's exact
// metrics; lane membership is a pure tid hash, so split counters partition
// the single-policy totals.
struct AbTestSpec {
  AbCanarySpec canary;
  double promote_at_ms = -1;   // < 0 = never promote
  double rollback_at_ms = -1;  // < 0 = never roll back
};

// Policy-fuzzer scenario: instead of one simulated machine, the run sweeps
// `cases` generated hostile policies through the fuzz harness
// (verify/policy_fuzzer.h) and reports case/violation counts as exact
// metrics. All machine-shaping sections (topology/workload/...) are ignored;
// the fuzz harness owns its own fixed machine.
struct FuzzSpec {
  int cases = 50;
  uint64_t base_seed = 1;
  int schedules_per_case = 1;  // random-walk executions per generated config
};

// ---- Fleet (multi-machine) specs --------------------------------------------

struct BalancerSpec {
  // "round_robin" | "least_loaded" | "consistent_hash".
  std::string policy = "least_loaded";
  // Shed a request outright when its chosen machine already has this many
  // front-end-tracked outstanding requests (0 = never shed).
  int shed_outstanding = 0;
  // consistent_hash: ring points per machine.
  int virtual_nodes = 16;
};

struct LinkSpec {
  // Node indices: machine index, or -1 for the front end. Links are
  // directed; list both directions to override a full duplex pair.
  int from = 0;
  int to = 0;
  double latency_us = -1;      // < 0 = inherit network.latency_us
  double bandwidth_gbps = -1;  // < 0 = inherit network.bandwidth_gbps
};

struct NetworkSpec {
  // Defaults for every directed link (front end <-> machines and
  // machine <-> machine); `links` lists per-link overrides.
  double latency_us = 50;
  double bandwidth_gbps = 10;
  double request_bytes = 1500;
  double response_bytes = 1500;
  std::vector<LinkSpec> links;
};

struct FleetEventSpec {
  double at_ms = 0;
  // Machine-scoped faults: "agent_crash" | "agent_stall" | "agent_recover" |
  // "enclave_destroy" (delivered to that machine's FaultInjector).
  // Balancer control: "lb_drain" | "lb_undrain" (the front end stops/resumes
  // routing new requests to the machine).
  // Network control: "link_down" | "link_up" (partition/heal the machine:
  // new messages to or from it are parked until the link heals; messages
  // already on the wire still deliver).
  std::string kind;
  int machine = 0;
};

// Per-machine deviations from the base scenario. Each present section is
// parsed *over a copy of the base section*, so an override only needs the
// keys it changes.
struct MachineOverrideSpec {
  int machine = 0;
  std::optional<PolicySpec> policy;
  std::optional<EnclaveSpec> enclave;
  std::optional<WorkloadSpec> workload;
  std::optional<AntagonistSpec> antagonist;
  std::optional<FaultsSpec> faults;
};

// A fleet scenario runs `machines` copies of the single-machine simulation
// under a front-end load balancer: the workload's Poisson phases drive the
// front end, which shards sessions across machines; requests and responses
// cross a deterministic network model (per-link latency + bandwidth).
// Requires workload.kind == "request_service" with fanout == 1
// (fleet.rpc_fanout is the cross-machine fan-out knob).
struct FleetSpec {
  int machines = 1;
  // Simulated user sessions the front end shards (a request's session id
  // feeds consistent hashing).
  int sessions = 256;
  // 1 = each request runs on one machine. k > 1: after the root machine
  // finishes its own service, it issues k-1 leaf RPCs to distinct other
  // machines and responds when all leaves complete (tail-at-scale).
  int rpc_fanout = 1;
  BalancerSpec balancer;
  NetworkSpec network;
  std::vector<MachineOverrideSpec> overrides;
  std::vector<FleetEventSpec> plan;
};

// ---- The scenario -----------------------------------------------------------

struct ScenarioSpec {
  std::string name;
  std::string description;
  uint64_t seed = 42;
  double warmup_ms = 20;   // metrics reset at the end of warmup
  double measure_ms = 80;  // measurement window
  double drain_ms = 20;    // extra run time to let in-flight requests finish
  TopologySpec topology;
  PolicySpec policy;
  EnclaveSpec enclave;
  WorkloadSpec workload;
  AntagonistSpec antagonist;
  FaultsSpec faults;
  InvariantsSpec invariants;
  // Present only with policy.kind == "ab_test"; incompatible with fleet.
  std::optional<AbTestSpec> ab_test;
  // Present = fuzzer sweep scenario; incompatible with fleet and ab_test.
  std::optional<FuzzSpec> fuzz;
  // Absent = single machine (the degenerate one-node cluster, no network or
  // front end in the loop). Present = fleet mode, even with machines == 1.
  std::optional<FleetSpec> fleet;

  // Deterministic, compact JSON rendering; Parse(ToJson()) == *this.
  std::string ToJson() const;

  // Strict parse of a scenario document. On failure returns nullopt and sets
  // `*error` to a message naming the offending key (or the JSON syntax
  // error's line:column).
  static std::optional<ScenarioSpec> Parse(std::string_view text, std::string* error);

  // Binary-facing wrappers matching the harness's flag-validation style:
  // print "scenario: <error>" to stderr and exit(2) on any problem.
  static ScenarioSpec ParseOrExit(std::string_view text);
  static ScenarioSpec LoadFileOrExit(const std::string& path);
};

}  // namespace scenario
}  // namespace gs

#endif  // GHOST_SIM_SRC_SCENARIO_SCENARIO_H_
