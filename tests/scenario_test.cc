// Scenario library tests: strict parsing (exit 2 naming the bad key, every
// error message pinned), parse -> ToJson -> parse round-trip identity, a
// seeded mutation fuzz of the built-ins, registry completeness, and golden
// determinism (byte-stable across repeated runs and across --jobs).
#include "src/scenario/scenario.h"

#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/base/rng.h"
#include "src/scenario/registry.h"
#include "src/scenario/scenario_runner.h"
#include "src/sim/batch_runner.h"

namespace gs {
namespace scenario {
namespace {

constexpr char kMinimal[] = R"json({
  "name": "minimal",
  "warmup_ms": 2, "measure_ms": 8, "drain_ms": 2,
  "topology": {"preset": "custom", "sockets": 1, "cores_per_socket": 2, "smt": 1, "cores_per_ccx": 2},
  "policy": {"kind": "per_cpu_fifo"},
  "enclave": {"cpu_first": 1},
  "workload": {
    "kind": "request_service", "num_workers": 4,
    "service": {"model": "fixed", "fixed_us": 20},
    "phases": [{"duration_ms": 10, "qps": 2000}]
  }
})json";

// ---- Strict parsing --------------------------------------------------------

TEST(ScenarioParseTest, MinimalParses) {
  std::string error;
  std::optional<ScenarioSpec> spec = ScenarioSpec::Parse(kMinimal, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->name, "minimal");
  EXPECT_EQ(spec->policy.kind, "per_cpu_fifo");
  ASSERT_EQ(spec->workload.phases.size(), 1u);
  EXPECT_DOUBLE_EQ(spec->workload.phases[0].qps, 2000);
}

TEST(ScenarioParseTest, UnknownTopLevelKeyIsNamed) {
  std::string error;
  EXPECT_FALSE(
      ScenarioSpec::Parse(R"({"name": "x", "wormload": {}})", &error).has_value());
  EXPECT_NE(error.find("unknown key \"wormload\""), std::string::npos) << error;
}

TEST(ScenarioParseTest, UnknownNestedKeyIsNamedWithPath) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::Parse(
                   R"({"name": "x", "policy": {"kind": "shinjuku", "timeslce_us": 30}})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("unknown key \"policy.timeslce_us\""), std::string::npos)
      << error;
}

TEST(ScenarioParseTest, MissingRequiredKeyIsNamed) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::Parse(R"({"description": "no name"})", &error).has_value());
  EXPECT_NE(error.find("missing required key \"name\""), std::string::npos) << error;
}

TEST(ScenarioParseTest, WrongTypeIsNamed) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::Parse(R"({"name": "x", "seed": "forty-two"})", &error)
                   .has_value());
  EXPECT_NE(error.find("\"seed\" must be a number"), std::string::npos) << error;
}

TEST(ScenarioParseTest, BadEnumValueIsNamed) {
  std::string error;
  EXPECT_FALSE(
      ScenarioSpec::Parse(R"({"name": "x", "policy": {"kind": "lottery"}})", &error)
          .has_value());
  EXPECT_NE(error.find("policy.kind"), std::string::npos) << error;
  EXPECT_NE(error.find("lottery"), std::string::npos) << error;
}

TEST(ScenarioParseTest, PresetRejectsCustomDimensions) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::Parse(
                   R"({"name": "x", "topology": {"preset": "e5_24", "sockets": 2}})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("topology.sockets"), std::string::npos) << error;
}

TEST(ScenarioParseTest, FaultPlanRequiresKind) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::Parse(
                   R"({"name": "x", "faults": {"plan": [{"at_ms": 5}]}})", &error)
                   .has_value());
  EXPECT_NE(error.find("missing required key \"faults.plan[0].kind\""),
            std::string::npos)
      << error;
}

// Every message the parser can produce, each from one malformed document, and
// word for word: the schema's error surface is part of its contract.
TEST(ScenarioParseTest, EveryErrorMessageIsPinned) {
  struct Case {
    const char* doc;
    const char* message;
  };
  const Case cases[] = {
      {R"({"name": })", "line 1:10: expected a value"},
      {R"([])", R"("" must be an object)"},
      {R"({"name": "x", "topology": 5})", R"("topology" must be an object)"},
      {R"({"name": "x", "workload": {"phases": [5]}})",
       R"("workload.phases[0]" must be an object)"},
      {R"({"name": 5})", R"("name" must be a string)"},
      {R"({"name": "x", "seed": "s"})", R"("seed" must be a number)"},
      {R"({"name": "x", "invariants": {"enabled": 1}})",
       R"("invariants.enabled" must be a boolean)"},
      {R"({"seed": 1})", R"(missing required key "name")"},
      {R"({"name": "x", "wormload": {}})", R"(unknown key "wormload")"},
      {R"({"name": "x", "topology": {"preset": "big"}})",
       R"("topology.preset": unknown value "big" (expected one of custom e5_24 )"
       R"(skylake112 haswell72 rome256))"},
      {R"({"name": "x", "topology": {"preset": "e5_24", "smt": 2}})",
       R"("topology.smt" is only valid with preset "custom")"},
      {R"({"name": "x", "topology": {"sockets": 0}})",
       R"("topology": sockets, cores_per_socket and smt must be >= 1)"},
      {R"({"name": "x", "policy": {"kind": "lottery"}})",
       R"("policy.kind": unknown value "lottery" (expected one of centralized_fifo )"
       R"(shinjuku shinjuku_shenango snap per_cpu_fifo o1 search predictive_shinjuku )"
       R"(predictive_search vm_core_sched ab_test cfs))"},
      {R"({"name": "x", "policy": {"num_priorities": 65}})",
       R"("policy.num_priorities" must be in [1, 64])"},
      {R"({"name": "x", "policy": {"min_timeslice_ms": 7}})",
       R"("policy.min_timeslice_ms" must be <= "policy.base_timeslice_ms")"},
      {R"({"name": "x", "policy": {"long_threshold_us": 0}})",
       R"("policy.long_threshold_us" must be > 0)"},
      {R"({"name": "x", "policy": {"backstop_multiplier": 0}})",
       R"("policy.backstop_multiplier" must be >= 1)"},
      {R"({"name": "x", "workload": {"service": {"model": "pareto"}}})",
       R"("workload.service.model": unknown value "pareto" (expected one of fixed )"
       R"(bimodal exponential))"},
      {R"({"name": "x", "workload": {"service": {"p_long": 2}}})",
       R"("workload.service.p_long" must be in [0, 1])"},
      {R"({"name": "x", "workload": {"phases": {}}})",
       R"("workload.phases" must be an array)"},
      {R"({"name": "x", "workload": {"phases": [{"qps": 1}]}})",
       R"(missing required key "workload.phases[0].duration_ms")"},
      {R"({"name": "x", "workload": {"phases": [{"duration_ms": 0}]}})",
       R"("workload.phases[0].duration_ms" must be > 0)"},
      {R"({"name": "x", "workload": {"phases": [{"duration_ms": 1, "qps": -1}]}})",
       R"("workload.phases[0].qps" must be >= 0)"},
      {R"({"name": "x", "workload": {"kind": "batch"}})",
       R"("workload.kind": unknown value "batch" (expected one of request_service vm))"},
      {R"({"name": "x", "workload": {"num_workers": 0}})",
       R"("workload.num_workers" must be >= 1)"},
      {R"({"name": "x", "workload": {"fanout": 0}})", R"("workload.fanout" must be >= 1)"},
      {R"({"name": "x", "workload": {"kind": "vm", "num_vms": 0}})",
       R"("workload": num_vms and vcpus_per_vm must be >= 1)"},
      {R"({"name": "x", "antagonist": {"placement": "moon"}})",
       R"("antagonist.placement": unknown value "moon" (expected one of cfs enclave))"},
      {R"({"name": "x", "antagonist": {"threads": -1}})",
       R"("antagonist.threads" must be >= 0)"},
      {R"({"name": "x", "antagonist": {"nice": 20}})",
       R"("antagonist.nice" must be in [-20, 19])"},
      {R"({"name": "x", "faults": {"estale_probability": 1.5}})",
       R"("faults.estale_probability" must be in [0, 1])"},
      {R"({"name": "x", "faults": {"plan": {}}})", R"("faults.plan" must be an array)"},
      {R"({"name": "x", "faults": {"plan": [{"at_ms": 1}]}})",
       R"(missing required key "faults.plan[0].kind")"},
      {R"({"name": "x", "faults": {"plan": [{"kind": "meteor"}]}})",
       R"("faults.plan[0].kind": unknown value "meteor" (expected one of agent_crash )"
       R"(agent_stall agent_recover enclave_destroy))"},
      {R"({"name": "x", "faults": {"plan": [{"kind": "agent_crash", "at_ms": -1}]}})",
       R"("faults.plan[0].at_ms" must be >= 0)"},
      {R"({"name": "x", "enclave": {"cpu_first": -1}})",
       R"("enclave.cpu_first" must be >= 0)"},
      {R"({"name": "x", "enclave": {"cpu_count": 0}})",
       R"("enclave.cpu_count" must be >= 1, or -1 for every CPU from cpu_first)"},
      {R"({"name": "x", "enclave": {"cpu_count": -2}})",
       R"("enclave.cpu_count" must be >= 1, or -1 for every CPU from cpu_first)"},
      {R"({"name": "x", "enclave": {"watchdog_timeout_ms": -1}})",
       R"("enclave.watchdog_timeout_ms" must be >= 0)"},
      {R"({"name": "x", "enclave": {"watchdog_period_ms": 0, "watchdog_timeout_ms": 5}})",
       R"("enclave.watchdog_period_ms" must be > 0)"},
      {R"({"name": "x", "antagonist": {"chunk_us": 0, "threads": 2}})",
       R"("antagonist.chunk_us" must be > 0)"},
      {R"({"name": "x", "invariants": {"period_us": 0}})",
       R"("invariants.period_us" must be > 0)"},
      // The duration rule, which every "_ms" and "_us" key passes.
      {R"({"name": "x", "invariants": {"period_us": 0.0001}})",
       R"("invariants.period_us" would truncate to 0 ns)"},
      {R"({"name": "x", "warmup_ms": 1e300})",
       R"("warmup_ms" does not fit in int64 nanoseconds)"},
      {R"({"name": "x", "faults": {"window_end_ms": -1e13}})",
       R"("faults.window_end_ms" does not fit in int64 nanoseconds)"},
      {R"({"name": "x", "fleet": {"machines": 2, "overrides": [{"machine": 1,
           "enclave": {"watchdog_timeout_ms": 1e-7}}]}})",
       R"("fleet.overrides[0].enclave.watchdog_timeout_ms" would truncate to 0 ns)"},
      // End times: each part passes the duration rule, their sum does not.
      {R"({"name": "x", "warmup_ms": 5e12, "measure_ms": 5e12})",
       R"("warmup_ms" + "measure_ms" + "drain_ms" does not fit in int64 nanoseconds)"},
      {R"({"name": "x", "workload": {"phases": [{"duration_ms": 5e12},
           {"duration_ms": 5e12}]}})",
       R"("workload": the summed "phases[].duration_ms" does not fit in int64 )"
       R"(nanoseconds)"},
      {R"({"name": "x", "fleet": {"machines": 2, "overrides": [{"machine": 1,
           "workload": {"phases": [{"duration_ms": 5e12}, {"duration_ms": 5e12}]}}]}})",
       R"("fleet.overrides[0].workload": the summed "phases[].duration_ms" does not )"
       R"(fit in int64 nanoseconds)"},
      {R"({"name": "x", "policy": {"kind": "ab_test"},
           "ab_test": {"canary": {"percent": 101}}})",
       R"("ab_test.canary.percent" must be in [0, 100])"},
      {R"({"name": "x", "policy": {"kind": "ab_test"},
           "ab_test": {"promote_at_ms": 5, "rollback_at_ms": 5}})",
       R"("ab_test.rollback_at_ms" must be > "ab_test.promote_at_ms" when both are )"
       R"(scheduled)"},
      {R"({"name": "x", "fuzz": {"cases": 0}})", R"("fuzz.cases" must be >= 1)"},
      {R"({"name": "x", "fuzz": {"schedules_per_case": 0}})",
       R"("fuzz.schedules_per_case" must be >= 1)"},
      {R"({"name": "x", "fleet": {"balancer": {"policy": "random"}}})",
       R"("fleet.balancer.policy": unknown value "random" (expected one of )"
       R"(round_robin least_loaded consistent_hash))"},
      {R"({"name": "x", "fleet": {"balancer": {"shed_outstanding": -1}}})",
       R"("fleet.balancer.shed_outstanding" must be >= 0)"},
      {R"({"name": "x", "fleet": {"balancer": {"virtual_nodes": 0}}})",
       R"("fleet.balancer.virtual_nodes" must be in [1, 512])"},
      {R"({"name": "x", "fleet": {"network": {"latency_us": 0}}})",
       R"("fleet.network.latency_us" must be > 0)"},
      {R"({"name": "x", "fleet": {"network": {"bandwidth_gbps": 0}}})",
       R"("fleet.network.bandwidth_gbps" must be > 0)"},
      {R"({"name": "x", "fleet": {"network": {"latency_us": 0.0004}}})",
       R"("fleet.network.latency_us" would truncate to 0 ns)"},
      {R"({"name": "x", "fleet": {"network": {"bandwidth_gbps": 1e-300}}})",
       R"("fleet.network.bandwidth_gbps" is too low: sending request_bytes or )"
       R"(response_bytes takes 2^63 ns or more)"},
      {R"({"name": "x", "fleet": {"network": {"request_bytes": -1}}})",
       R"("fleet.network": request_bytes and response_bytes must be >= 0)"},
      {R"({"name": "x", "fleet": {"network": {"links": {}}}})",
       R"("fleet.network.links" must be an array)"},
      {R"({"name": "x", "fleet": {"network": {"links": [{"from": 0}]}}})",
       R"(missing required key "fleet.network.links[0].to")"},
      {R"({"name": "x", "fleet": {"machines": 2, "network": {"links": [{"from": 0, "to": 2}]}}})",
       R"("fleet.network.links[0].to" must be a machine index in [0, 2) or -1 for the )"
       R"(front end)"},
      {R"({"name": "x", "fleet": {"network": {"links": [{"from": 0, "to": 0}]}}})",
       R"("fleet.network.links[0]": from and to must differ)"},
      {R"({"name": "x", "fleet": {"machines": 2,
           "network": {"links": [{"from": 0, "to": 1, "latency_us": 0}]}}})",
       R"("fleet.network.links[0].latency_us" must be > 0 (omit it to inherit the )"
       R"(network default))"},
      {R"({"name": "x", "fleet": {"machines": 2,
           "network": {"links": [{"from": 0, "to": 1, "bandwidth_gbps": -1}]}}})",
       R"("fleet.network.links[0].bandwidth_gbps" must be > 0 (omit it to inherit the )"
       R"(network default))"},
      {R"({"name": "x", "fleet": {"machines": 2,
           "network": {"links": [{"from": 0, "to": 1, "latency_us": 0.0004}]}}})",
       R"("fleet.network.links[0].latency_us" would truncate to 0 ns)"},
      {R"({"name": "x", "fleet": {"machines": 2,
           "network": {"links": [{"from": -1, "to": 1, "bandwidth_gbps": 1e-300}]}}})",
       R"("fleet.network.links[0].bandwidth_gbps" is too low: sending request_bytes or )"
       R"(response_bytes takes 2^63 ns or more)"},
      {R"({"name": "x", "fleet": {"machines": 257}})", R"("fleet.machines" must be in [1, 256])"},
      {R"({"name": "x", "fleet": {"sessions": 0}})", R"("fleet.sessions" must be >= 1)"},
      {R"({"name": "x", "fleet": {"rpc_fanout": 2}})",
       R"("fleet.rpc_fanout" must be in [1, fleet.machines])"},
      {R"({"name": "x", "fleet": {"overrides": {}}})", R"("fleet.overrides" must be an array)"},
      {R"({"name": "x", "fleet": {"overrides": [{}]}})",
       R"(missing required key "fleet.overrides[0].machine")"},
      {R"({"name": "x", "fleet": {"overrides": [{"machine": 1}]}})",
       R"("fleet.overrides[0].machine" must be in [0, 1))"},
      {R"({"name": "x", "fleet": {"plan": {}}})", R"("fleet.plan" must be an array)"},
      {R"({"name": "x", "fleet": {"plan": [{"at_ms": 1}]}})",
       R"(missing required key "fleet.plan[0].kind")"},
      {R"({"name": "x", "fleet": {"plan": [{"kind": "reboot"}]}})",
       R"("fleet.plan[0].kind": unknown value "reboot" (expected one of agent_crash )"
       R"(agent_stall agent_recover enclave_destroy lb_drain lb_undrain link_down )"
       R"(link_up))"},
      {R"({"name": "x", "fleet": {"plan": [{"kind": "lb_drain", "at_ms": -1}]}})",
       R"("fleet.plan[0].at_ms" must be >= 0)"},
      {R"({"name": "x", "fleet": {"plan": [{"kind": "lb_drain", "machine": 1}]}})",
       R"("fleet.plan[0].machine" must be in [0, 1))"},
      {R"({"name": ""})", R"("name" must be a non-empty string)"},
      {R"({"name": "x", "measure_ms": 0})",
       R"("measure_ms" must be > 0 and "warmup_ms"/"drain_ms" >= 0)"},
      {R"({"name": "x", "ab_test": {}})", R"("ab_test" requires "policy.kind" == "ab_test")"},
      {R"({"name": "x", "policy": {"kind": "ab_test"}, "ab_test": {}, "fuzz": {}})",
       R"("fuzz" cannot be combined with "ab_test")"},
      {R"({"name": "x", "workload": {"kind": "vm"}, "fleet": {}})",
       R"("fleet" requires "workload.kind" == "request_service")"},
      {R"({"name": "x", "workload": {"fanout": 2}, "fleet": {}})",
       R"("fleet" requires "workload.fanout" == 1 (use "fleet.rpc_fanout" for )"
       R"(cross-machine fan-out))"},
      {R"({"name": "x", "policy": {"kind": "vm_core_sched"}})",
       R"("policy.kind" "vm_core_sched" requires "workload.kind" == "vm")"},
      {R"({"name": "x", "policy": {"kind": "vm_core_sched"}, "fleet": {}})",
       R"("fleet" cannot be combined with "policy.kind" "vm_core_sched")"},
      {R"({"name": "x", "policy": {"kind": "ab_test"}, "fleet": {}})",
       R"("fleet" cannot be combined with "ab_test")"},
      {R"({"name": "x", "fuzz": {}, "fleet": {}})", R"("fleet" cannot be combined with "fuzz")"},
      {R"({"name": "x", "fleet": {"machines": 2,
           "overrides": [{"machine": 1, "workload": {"fanout": 2}}]}})",
       R"("fleet.overrides[0].workload" must keep kind "request_service" and fanout 1 in )"
       R"(a fleet)"},
      {R"({"name": "x", "fleet": {"machines": 2,
           "overrides": [{"machine": 1, "policy": {"kind": "vm_core_sched"}}]}})",
       R"("fleet.overrides[0].policy.kind" cannot be "vm_core_sched" in a fleet)"},
  };
  for (const Case& c : cases) {
    std::string error;
    EXPECT_FALSE(ScenarioSpec::Parse(c.doc, &error).has_value()) << c.doc;
    EXPECT_EQ(error, c.message) << c.doc;
  }
}

// JSON numbers are doubles; an integer key takes only a whole number its
// field can hold, and no key takes an infinity (the writer has no token for
// one, so it could not round-trip).
TEST(ScenarioParseTest, IntegerKeysRejectFractionsAndOutOfRangeNumbers) {
  const char* const kInt = "must be an integer in [-2147483648, 2147483647]";
  const char* const kUInt64 = "must be an integer in [0, 18446744073709551615]";
  const std::pair<const char*, std::string> cases[] = {
      {R"({"name": "x", "seed": -5})", std::string(R"("seed" )") + kUInt64},
      {R"({"name": "x", "workload": {"num_workers": 2.7}})",
       std::string(R"("workload.num_workers" )") + kInt},
      {R"({"name": "x", "enclave": {"cpu_first": 1.9}})",
       std::string(R"("enclave.cpu_first" )") + kInt},
      {R"({"name": "x", "seed": 18446744073709551616})", std::string(R"("seed" )") + kUInt64},
      {R"({"name": "x", "fleet": {"machines": 4294967297}})",
       std::string(R"("fleet.machines" )") + kInt},
      {R"({"name": "x", "fuzz": {"base_seed": 1e999}})",
       std::string(R"("fuzz.base_seed" )") + kUInt64},
      {R"({"name": "x", "warmup_ms": 1e999})", R"("warmup_ms" must be a finite number)"},
  };
  for (const auto& [doc, message] : cases) {
    std::string error;
    EXPECT_FALSE(ScenarioSpec::Parse(doc, &error).has_value()) << doc;
    EXPECT_EQ(error, message) << doc;
  }
  // Whole numbers up to each type's edge still parse, written either way.
  std::string error;
  const std::optional<ScenarioSpec> spec = ScenarioSpec::Parse(
      R"({"name": "x", "seed": 18446744073709549568, "policy": {"global_cpu": -2147483648},
          "enclave": {"cpu_first": 3.0, "cpu_count": 2147483647}})",
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  EXPECT_EQ(spec->seed, 18446744073709549568ULL);
  EXPECT_EQ(spec->policy.global_cpu, -2147483648);
  EXPECT_EQ(spec->enclave.cpu_first, 3);
  EXPECT_EQ(spec->enclave.cpu_count, 2147483647);
}

// ---- Fleet block -----------------------------------------------------------

// kMinimal plus a fleet block; the helper splices the fleet JSON in.
std::string WithFleet(const std::string& fleet_json) {
  std::string spec(kMinimal);
  const size_t close = spec.rfind('}');
  return spec.substr(0, close) + ", \"fleet\": " + fleet_json + "}";
}

TEST(ScenarioParseTest, FleetBlockParses) {
  std::string error;
  std::optional<ScenarioSpec> spec = ScenarioSpec::Parse(
      WithFleet(R"({"machines": 8, "sessions": 128, "rpc_fanout": 2,
                    "balancer": {"policy": "consistent_hash", "virtual_nodes": 32},
                    "network": {"latency_us": 20, "bandwidth_gbps": 40,
                                "links": [{"from": -1, "to": 0, "latency_us": 5}]},
                    "overrides": [{"machine": 3, "policy": {"kind": "per_cpu_fifo"}}],
                    "plan": [{"at_ms": 5, "kind": "lb_drain", "machine": 3}]})"),
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_TRUE(spec->fleet.has_value());
  EXPECT_EQ(spec->fleet->machines, 8);
  EXPECT_EQ(spec->fleet->rpc_fanout, 2);
  EXPECT_EQ(spec->fleet->balancer.policy, "consistent_hash");
  EXPECT_EQ(spec->fleet->balancer.virtual_nodes, 32);
  ASSERT_EQ(spec->fleet->network.links.size(), 1u);
  EXPECT_EQ(spec->fleet->network.links[0].from, -1);
  ASSERT_EQ(spec->fleet->overrides.size(), 1u);
  ASSERT_TRUE(spec->fleet->overrides[0].policy.has_value());
  EXPECT_EQ(spec->fleet->overrides[0].policy->kind, "per_cpu_fifo");
  ASSERT_EQ(spec->fleet->plan.size(), 1u);
  EXPECT_EQ(spec->fleet->plan[0].kind, "lb_drain");
}

std::string WithAbTest(const std::string& ab_json) {
  std::string spec(kMinimal);
  spec.replace(spec.find("per_cpu_fifo"), sizeof("per_cpu_fifo") - 1, "ab_test");
  const size_t close = spec.rfind('}');
  return spec.substr(0, close) + ", \"ab_test\": " + ab_json + "}";
}

std::string WithFuzz(const std::string& fuzz_json) {
  std::string spec(kMinimal);
  const size_t close = spec.rfind('}');
  return spec.substr(0, close) + ", \"fuzz\": " + fuzz_json + "}";
}

TEST(ScenarioParseTest, AbTestBlockParses) {
  std::string error;
  std::optional<ScenarioSpec> spec = ScenarioSpec::Parse(
      WithAbTest(R"({"canary": {"percent": 25, "lifo": true},
                     "promote_at_ms": 4, "rollback_at_ms": 6})"),
      &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_TRUE(spec->ab_test.has_value());
  EXPECT_EQ(spec->ab_test->canary.percent, 25);
  EXPECT_TRUE(spec->ab_test->canary.lifo);
  EXPECT_DOUBLE_EQ(spec->ab_test->promote_at_ms, 4);
  EXPECT_DOUBLE_EQ(spec->ab_test->rollback_at_ms, 6);
}

TEST(ScenarioParseTest, AbTestRequiresTheAbTestPolicyKind) {
  std::string error;
  std::string spec(kMinimal);  // policy.kind stays per_cpu_fifo
  const size_t close = spec.rfind('}');
  spec = spec.substr(0, close) + ", \"ab_test\": {\"canary\": {\"percent\": 5}}}";
  EXPECT_FALSE(ScenarioSpec::Parse(spec, &error).has_value());
  EXPECT_NE(error.find("ab_test"), std::string::npos) << error;
  EXPECT_NE(error.find("policy.kind"), std::string::npos) << error;
}

TEST(ScenarioParseTest, AbTestCanaryPercentMustBeInRange) {
  std::string error;
  EXPECT_FALSE(
      ScenarioSpec::Parse(WithAbTest(R"({"canary": {"percent": 101}})"), &error)
          .has_value());
  EXPECT_NE(error.find("percent"), std::string::npos) << error;
}

TEST(ScenarioParseTest, FuzzBlockParses) {
  std::string error;
  std::optional<ScenarioSpec> spec = ScenarioSpec::Parse(
      WithFuzz(R"({"cases": 40, "base_seed": 9, "schedules_per_case": 3})"), &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ASSERT_TRUE(spec->fuzz.has_value());
  EXPECT_EQ(spec->fuzz->cases, 40);
  EXPECT_EQ(spec->fuzz->base_seed, 9u);
  EXPECT_EQ(spec->fuzz->schedules_per_case, 3);
}

TEST(ScenarioParseTest, FuzzCannotCombineWithAbTest) {
  std::string error;
  std::string spec = WithAbTest(R"({"canary": {"percent": 5}})");
  const size_t close = spec.rfind('}');
  spec = spec.substr(0, close) + ", \"fuzz\": {\"cases\": 5}}";
  EXPECT_FALSE(ScenarioSpec::Parse(spec, &error).has_value());
  EXPECT_NE(error.find("fuzz"), std::string::npos) << error;
}

TEST(ScenarioParseTest, FleetUnknownKeyIsNamedWithPath) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::Parse(WithFleet(R"({"machines": 2, "ballancer": {}})"),
                                   &error)
                   .has_value());
  EXPECT_NE(error.find("unknown key \"fleet.ballancer\""), std::string::npos) << error;
}

TEST(ScenarioParseTest, FleetOverrideUnknownKeyHasFullPath) {
  std::string error;
  EXPECT_FALSE(
      ScenarioSpec::Parse(
          WithFleet(
              R"({"machines": 2,
                  "overrides": [{"machine": 1, "policy": {"kimd": "shinjuku"}}]})"),
          &error)
          .has_value());
  EXPECT_NE(error.find("unknown key \"fleet.overrides[0].policy.kimd\""),
            std::string::npos)
      << error;
}

TEST(ScenarioParseTest, FleetMachineCountIsBounded) {
  std::string error;
  EXPECT_FALSE(
      ScenarioSpec::Parse(WithFleet(R"({"machines": 257})"), &error).has_value());
  EXPECT_NE(error.find("fleet.machines"), std::string::npos) << error;
}

TEST(ScenarioParseTest, FleetFanoutCannotExceedMachines) {
  std::string error;
  EXPECT_FALSE(
      ScenarioSpec::Parse(WithFleet(R"({"machines": 4, "rpc_fanout": 5})"), &error)
          .has_value());
  EXPECT_NE(error.find("fleet.rpc_fanout"), std::string::npos) << error;
}

TEST(ScenarioParseTest, FleetLinkNodeIndexIsRangeChecked) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::Parse(
                   WithFleet(R"({"machines": 4,
                                 "network": {"links": [{"from": 0, "to": 4}]}})"),
                   &error)
                   .has_value());
  EXPECT_NE(error.find("fleet.network.links[0].to"), std::string::npos) << error;
}

TEST(ScenarioParseTest, FleetPlanKindIsValidated) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::Parse(
                   WithFleet(R"({"machines": 2,
                                 "plan": [{"at_ms": 1, "kind": "reboot", "machine": 0}]})"),
                   &error)
                   .has_value());
  EXPECT_NE(error.find("fleet.plan[0].kind"), std::string::npos) << error;
  EXPECT_NE(error.find("reboot"), std::string::npos) << error;
}

TEST(ScenarioParseTest, FleetRejectsVmWorkload) {
  // A vm workload cannot shard across a fleet front end.
  std::string error;
  EXPECT_FALSE(ScenarioSpec::Parse(
                   R"({"name": "x",
                       "workload": {"kind": "vm", "num_vms": 2},
                       "fleet": {"machines": 2}})",
                   &error)
                   .has_value());
  EXPECT_NE(error.find("request_service"), std::string::npos) << error;
}

TEST(ScenarioParseTest, SyntaxErrorReportsLineAndColumn) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::Parse("{\n  \"name\": \"x\",,\n}", &error).has_value());
  EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

// ---- Exit-2 contract (the code path the binaries use) ----------------------

TEST(ScenarioDeathTest, ParseOrExitNamesUnknownKeyAndExits2) {
  EXPECT_EXIT(ScenarioSpec::ParseOrExit(R"({"name": "x", "polcy": {}})"),
              ::testing::ExitedWithCode(2), "unknown key \"polcy\"");
}

TEST(ScenarioDeathTest, ParseOrExitNamesMissingKeyAndExits2) {
  EXPECT_EXIT(ScenarioSpec::ParseOrExit(R"({"seed": 1})"),
              ::testing::ExitedWithCode(2), "missing required key \"name\"");
}

TEST(ScenarioDeathTest, FleetTypoNamesExactPathAndExits2) {
  EXPECT_EXIT(
      ScenarioSpec::ParseOrExit(WithFleet(R"({"machines": 2, "ballancer": {}})")),
      ::testing::ExitedWithCode(2), "unknown key \"fleet.ballancer\"");
}

TEST(ScenarioDeathTest, AbTestCanaryTypoNamesExactPathAndExits2) {
  EXPECT_EXIT(
      ScenarioSpec::ParseOrExit(WithAbTest(R"({"canary": {"percent": 10, "polcy": 1}})")),
      ::testing::ExitedWithCode(2), "unknown key \"ab_test.canary.polcy\"");
}

TEST(ScenarioDeathTest, AbTestTypoNamesExactPathAndExits2) {
  EXPECT_EXIT(ScenarioSpec::ParseOrExit(WithAbTest(R"({"promot_at_ms": 4})")),
              ::testing::ExitedWithCode(2), "unknown key \"ab_test.promot_at_ms\"");
}

TEST(ScenarioDeathTest, FuzzTypoNamesExactPathAndExits2) {
  EXPECT_EXIT(ScenarioSpec::ParseOrExit(WithFuzz(R"({"cses": 10})")),
              ::testing::ExitedWithCode(2), "unknown key \"fuzz.cses\"");
}

TEST(ScenarioDeathTest, LoadFileOrExitRejectsMissingFile) {
  EXPECT_EXIT(ScenarioSpec::LoadFileOrExit("/nonexistent/scenario.json"),
              ::testing::ExitedWithCode(2), "cannot open");
}

TEST(ScenarioDeathTest, LoadScenarioOrExitRejectsUnknownName) {
  EXPECT_EXIT(LoadScenarioOrExit("no_such_scenario"), ::testing::ExitedWithCode(2),
              "neither a built-in scenario nor a file");
}

// ---- Round-trip ------------------------------------------------------------

TEST(ScenarioRoundTripTest, ParseToJsonParseIsIdentity) {
  std::string error;
  std::optional<ScenarioSpec> first = ScenarioSpec::Parse(kMinimal, &error);
  ASSERT_TRUE(first.has_value()) << error;
  const std::string rendered = first->ToJson();
  std::optional<ScenarioSpec> second = ScenarioSpec::Parse(rendered, &error);
  ASSERT_TRUE(second.has_value()) << "ToJson output failed to re-parse: " << error
                                  << "\n" << rendered;
  EXPECT_EQ(second->ToJson(), rendered);
}

TEST(ScenarioRoundTripTest, EveryBuiltinRoundTrips) {
  for (const std::string& name : BuiltinScenarioNames()) {
    const ScenarioSpec spec = GetBuiltinScenario(name);
    const std::string rendered = spec.ToJson();
    std::string error;
    std::optional<ScenarioSpec> reparsed = ScenarioSpec::Parse(rendered, &error);
    ASSERT_TRUE(reparsed.has_value()) << name << ": " << error;
    EXPECT_EQ(reparsed->ToJson(), rendered) << name;
  }
}

// ---- Untrusted input -------------------------------------------------------

// One edit to the value `target` of a JSON tree: dropped (an object
// member), replaced by the raw JSON `text`, or duplicated (an object member,
// written again with `text` as its value).
struct Edit {
  enum Kind { kDrop, kReplace, kDuplicate } kind = kReplace;
  const JsonValue* target = nullptr;
  std::string text;
};

// Writes `v` with `edit` applied.
void Render(const JsonValue& v, const Edit& edit, JsonWriter& w) {
  if (&v == edit.target && edit.kind == Edit::kReplace) {
    w.Raw(edit.text);
    return;
  }
  switch (v.type) {
    case JsonValue::Type::kNull:
      w.Null();
      break;
    case JsonValue::Type::kBool:
      w.Bool(v.boolean);
      break;
    case JsonValue::Type::kNumber:
      w.Double(v.number);
      break;
    case JsonValue::Type::kString:
      w.String(v.string);
      break;
    case JsonValue::Type::kArray:
      w.BeginArray();
      for (const JsonValue& item : v.array) {
        Render(item, edit, w);
      }
      w.EndArray();
      break;
    case JsonValue::Type::kObject:
      w.BeginObject();
      for (const auto& [key, member] : v.object) {
        if (&member == edit.target && edit.kind == Edit::kDrop) {
          continue;
        }
        w.Key(key);
        Render(member, edit, w);
        if (&member == edit.target && edit.kind == Edit::kDuplicate) {
          w.Key(key);
          w.Raw(edit.text);
        }
      }
      w.EndObject();
      break;
  }
}

// Every value in the tree, and separately every object member's value.
void Collect(const JsonValue& v, std::vector<const JsonValue*>* values,
             std::vector<const JsonValue*>* members) {
  values->push_back(&v);
  for (const JsonValue& item : v.array) {
    Collect(item, values, members);
  }
  for (const auto& [key, member] : v.object) {
    members->push_back(&member);
    Collect(member, values, members);
  }
}

// Seeded mutations of every built-in: members dropped, retyped and
// duplicated, numbers pushed to the extremes of double and of every integer
// type, enum values swapped across sections, and the text truncated. Parse
// must either fail with a message or return a spec whose ToJson is a parse
// fixed point; it must never crash (the sanitizer builds run this too).
TEST(ScenarioFuzzTest, MutatedBuiltinsFailCleanlyOrRoundTrip) {
  const char* const kValues[] = {
      "null", "true", "false", "\"\"", "[]", "{}", "[{}]", "{\"x\":1}", "[1,2]",
      "0", "-0", "1", "-1", "-5", "0.5", "2.7", "1.9", "65", "513", "1e-320",
      "4.9e-324", "1e308", "-1e308", "1e999", "-1e999", "2147483647", "2147483648",
      "-2147483649", "9007199254740993", "9223372036854775808", "18446744073709551615",
      "18446744073709551616", "\"custom\"", "\"vm\"", "\"cfs\"", "\"ab_test\"",
      "\"vm_core_sched\"", "\"enclave\"", "\"agent_crash\"", "\"lb_drain\"",
      "\"link_down\"", "\"exponential\"", "\"consistent_hash\""};
  Rng rng(20211026);
  int parsed = 0;
  int rejected = 0;
  for (const std::string& name : BuiltinScenarioNames()) {
    for (int round = 0; round < 150; ++round) {
      std::string text = BuiltinScenarioJson(name);
      const int edits = 1 + static_cast<int>(rng.NextBounded(3));
      for (int e = 0; e < edits; ++e) {
        const std::optional<JsonValue> doc = JsonValue::Parse(text);
        if (!doc.has_value()) {
          break;
        }
        std::vector<const JsonValue*> values;
        std::vector<const JsonValue*> members;
        Collect(*doc, &values, &members);
        Edit edit;
        edit.kind = static_cast<Edit::Kind>(rng.NextBounded(3));
        const std::vector<const JsonValue*>& pool =
            edit.kind == Edit::kReplace || members.empty() ? values : members;
        edit.target = pool[rng.NextBounded(pool.size())];
        edit.text = kValues[rng.NextBounded(std::size(kValues))];
        if (edit.kind == Edit::kDuplicate && rng.NextBounded(2) == 0) {
          JsonWriter same;  // the same value twice
          Render(*edit.target, Edit{}, same);
          edit.text = same.str();
        }
        JsonWriter w;
        Render(*doc, edit, w);
        text = w.str();
      }
      if (rng.NextBounded(8) == 0) {
        text.resize(rng.NextBounded(text.size()));
      }

      std::string error;
      const std::optional<ScenarioSpec> spec = ScenarioSpec::Parse(text, &error);
      if (!spec.has_value()) {
        EXPECT_FALSE(error.empty()) << text;
        ++rejected;
        continue;
      }
      ++parsed;
      const std::string rendered = spec->ToJson();
      const std::optional<ScenarioSpec> again = ScenarioSpec::Parse(rendered, &error);
      ASSERT_TRUE(again.has_value()) << name << ": " << error << "\n" << text << "\n"
                                     << rendered;
      EXPECT_EQ(again->ToJson(), rendered) << text;
    }
  }
  // Both outcomes are exercised, not just the error paths.
  EXPECT_GT(parsed, 100);
  EXPECT_GT(rejected, 100);
}

// ---- Registry --------------------------------------------------------------

TEST(ScenarioRegistryTest, ShipsAtLeastTenBuiltinsSorted) {
  const std::vector<std::string> names = BuiltinScenarioNames();
  EXPECT_GE(names.size(), 10u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
  for (const std::string& name : names) {
    const ScenarioSpec spec = GetBuiltinScenario(name);  // CHECKs on parse error
    EXPECT_EQ(spec.name, name) << "registry key and spec name disagree";
  }
}

TEST(ScenarioRegistryTest, CoversTheAdvertisedSituations) {
  const std::vector<std::string> names = BuiltinScenarioNames();
  for (const char* required :
       {"cfs_antagonist_colocation", "diurnal_load_swing", "overload_recovery",
        "tail_at_scale_fanout", "priority_inversion_storm",
        "agent_crash_midspike_fallback_cfs", "vm_colocation"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << "missing built-in: " << required;
  }
}

// ---- Golden determinism ----------------------------------------------------

TEST(ScenarioGoldenTest, RenderIsByteStableAcrossRuns) {
  std::string error;
  std::optional<ScenarioSpec> spec = ScenarioSpec::Parse(kMinimal, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  const std::string first = RenderGolden(RunScenario(*spec));
  const std::string second = RenderGolden(RunScenario(*spec));
  EXPECT_EQ(first, second);
}

TEST(ScenarioGoldenTest, RenderIsByteStableAcrossJobs) {
  std::string error;
  std::optional<ScenarioSpec> spec = ScenarioSpec::Parse(kMinimal, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  // The same 4-scenario batch serially and on 3 workers: slot-indexed
  // results must render to identical bytes.
  auto run_batch = [&spec](int jobs) {
    const BatchRunner runner(jobs);
    return runner.Map<std::string>(
        4, [&spec](int k) {
          ScenarioSpec copy = *spec;
          copy.seed = 42 + static_cast<uint64_t>(k);
          return RenderGolden(RunScenario(copy));
        });
  };
  EXPECT_EQ(run_batch(1), run_batch(3));
}

TEST(ScenarioGoldenTest, FreshRunMatchesItsOwnGolden) {
  std::string error;
  std::optional<ScenarioSpec> spec = ScenarioSpec::Parse(kMinimal, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  const ScenarioResult result = RunScenario(*spec);
  std::vector<std::string> problems;
  EXPECT_TRUE(CheckGolden(result, RenderGolden(result), &problems))
      << (problems.empty() ? "" : problems[0]);
}

TEST(ScenarioGoldenTest, ExactDriftFailsTheCheck) {
  std::string error;
  std::optional<ScenarioSpec> spec = ScenarioSpec::Parse(kMinimal, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ScenarioResult result = RunScenario(*spec);
  const std::string golden = RenderGolden(result);
  result.exact["completed"] += 1;
  std::vector<std::string> problems;
  EXPECT_FALSE(CheckGolden(result, golden, &problems));
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("exact.completed"), std::string::npos) << problems[0];
}

TEST(ScenarioGoldenTest, EnvelopeEscapeFailsTheCheck) {
  std::string error;
  std::optional<ScenarioSpec> spec = ScenarioSpec::Parse(kMinimal, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ScenarioResult result = RunScenario(*spec);
  const std::string golden = RenderGolden(result);
  // A relative 1e-10 still shows in the rendered digits, and a golden is
  // exact: there is no tolerance band to hide the move in.
  ASSERT_GT(result.envelopes["p99_us"], 0);
  result.envelopes["p99_us"] *= 1 + 1e-10;
  std::vector<std::string> problems;
  EXPECT_FALSE(CheckGolden(result, golden, &problems));
  ASSERT_EQ(problems.size(), 1u);
  EXPECT_EQ(problems[0].rfind("envelopes.p99_us: ", 0), 0u) << problems[0];
}

TEST(ScenarioGoldenTest, SchemaDriftIsDetectedBothWays) {
  std::string error;
  std::optional<ScenarioSpec> spec = ScenarioSpec::Parse(kMinimal, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  ScenarioResult result = RunScenario(*spec);
  const std::string golden = RenderGolden(result);

  ScenarioResult extra = result;
  extra.exact["brand_new_metric"] = 7;
  std::vector<std::string> problems;
  EXPECT_FALSE(CheckGolden(extra, golden, &problems));

  ScenarioResult fewer = result;
  fewer.exact.erase("completed");
  problems.clear();
  EXPECT_FALSE(CheckGolden(fewer, golden, &problems));
}

}  // namespace
}  // namespace scenario
}  // namespace gs
