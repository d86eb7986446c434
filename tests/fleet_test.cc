// Fleet layer tests: the deterministic network model (latency, bandwidth
// serialization, canonical flush order, partition/heal parking), the
// front-end load balancer strategies, machine teardown, and the Cluster's
// determinism contract — same seed => byte-identical results serially and on
// a thread pool, and partition/heal chaos leaves the invariant checkers
// clean.
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/base/json.h"
#include "src/fleet/cluster.h"
#include "src/fleet/load_balancer.h"
#include "src/fleet/machine_sim.h"
#include "src/fleet/network.h"
#include "src/policies/per_cpu_fifo.h"
#include "src/scenario/registry.h"
#include "src/scenario/scenario.h"
#include "src/scenario/scenario_runner.h"
#include "src/sim/simulation.h"

namespace gs {
namespace fleet {
namespace {

// ---- NetworkModel ----------------------------------------------------------

TEST(NetworkModelTest, DeliversAfterTransmitPlusLatency) {
  EventLoop a;
  EventLoop b;
  NetworkModel::Options options;
  options.default_latency = Microseconds(50);
  options.default_bytes_per_ns = 1.25;  // 10 Gbps
  NetworkModel net({&a, &b}, options);

  std::vector<Time> deliveries;
  net.Send(0, 1, 1250, [&] { deliveries.push_back(b.now()); });
  net.FlushAtBarrier();
  b.RunUntil(Milliseconds(1));
  // transmit = 1250 B / 1.25 B/ns = 1000 ns, plus 50 us propagation.
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], Microseconds(51));
  EXPECT_EQ(net.delivered(), 1);
}

TEST(NetworkModelTest, LinkBandwidthSerializesBackToBackSends) {
  EventLoop a;
  EventLoop b;
  NetworkModel::Options options;
  options.default_latency = Microseconds(50);
  options.default_bytes_per_ns = 1.25;
  NetworkModel net({&a, &b}, options);

  std::vector<Time> deliveries;
  // Both submitted at t=0: the second transmit queues behind the first on
  // the directed link, so deliveries are 1 transmit-time apart.
  net.Send(0, 1, 1250, [&] { deliveries.push_back(b.now()); });
  net.Send(0, 1, 1250, [&] { deliveries.push_back(b.now()); });
  net.FlushAtBarrier();
  b.RunUntil(Milliseconds(1));
  ASSERT_EQ(deliveries.size(), 2u);
  EXPECT_EQ(deliveries[0], Microseconds(51));
  EXPECT_EQ(deliveries[1], Microseconds(52));
}

TEST(NetworkModelTest, BacklogPastTheEndOfTimeDeliversNever) {
  EventLoop a;
  EventLoop b;
  NetworkModel::Options options;
  options.default_latency = Microseconds(50);
  options.default_bytes_per_ns = 2.5e-16;  // 1500 B take 6e18 ns, under 2^63
  NetworkModel net({&a, &b}, options);

  // The second send queues behind the first and would depart at 1.2e19 ns,
  // past int64: it must saturate at kTimeNever rather than wrap into the
  // past.
  int delivered = 0;
  net.Send(0, 1, 1500, [&] { ++delivered; });
  net.Send(0, 1, 1500, [&] { ++delivered; });
  net.FlushAtBarrier();
  b.RunUntil(kTimeNever - 1);
  EXPECT_EQ(delivered, 1);  // the first, at 6e18 ns + 50 us
  EXPECT_EQ(b.pending_count(), 1u);
}

TEST(NetworkModelTest, FlushOrderBreaksTiesByDstThenSrcThenSeq) {
  EventLoop a;
  EventLoop b;
  EventLoop c;
  NetworkModel::Options options;
  options.default_latency = Microseconds(50);
  options.default_bytes_per_ns = 1.25;
  NetworkModel net({&a, &b, &c}, options);

  // Same byte count on two distinct directed links, both sent at t=0: equal
  // delivery times. The canonical order must run src 0 before src 1.
  std::vector<int> order;
  net.Send(1, 2, 100, [&] { order.push_back(1); });
  net.Send(0, 2, 100, [&] { order.push_back(0); });
  net.FlushAtBarrier();
  c.RunUntil(Milliseconds(1));
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 0);
  EXPECT_EQ(order[1], 1);
}

TEST(NetworkModelTest, PartitionParksAndHealRetransmits) {
  EventLoop a;
  EventLoop b;
  NetworkModel::Options options;
  options.default_latency = Microseconds(50);
  options.default_bytes_per_ns = 1.25;
  NetworkModel net({&a, &b}, options);

  net.SetNodeLinked(1, false, 0);
  std::vector<Time> deliveries;
  net.Send(0, 1, 1250, [&] { deliveries.push_back(b.now()); });
  net.FlushAtBarrier();
  b.RunUntil(Microseconds(100));
  EXPECT_TRUE(deliveries.empty());
  EXPECT_EQ(net.parked(), 1);
  EXPECT_EQ(net.parked_now(), 1);
  EXPECT_EQ(net.delivered(), 0);

  // Heal at t=100us: the parked message retransmits from the heal time.
  net.SetNodeLinked(1, true, Microseconds(100));
  net.FlushAtBarrier();
  b.RunUntil(Milliseconds(1));
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0], Microseconds(151));
  EXPECT_EQ(net.parked(), 1);  // cumulative
  EXPECT_EQ(net.parked_now(), 0);
  EXPECT_EQ(net.delivered(), 1);
}

TEST(NetworkModelTest, PerLinkOverrideAndMinLatency) {
  EventLoop a;
  EventLoop b;
  NetworkModel::Options options;
  options.default_latency = Microseconds(50);
  NetworkModel net({&a, &b}, options);
  EXPECT_EQ(net.min_latency(), Microseconds(50));
  net.SetLink(0, 1, Microseconds(10), 1.25);
  EXPECT_EQ(net.min_latency(), Microseconds(10));
}

// ---- LoadBalancer ----------------------------------------------------------

TEST(LoadBalancerTest, RoundRobinCyclesAndSkipsDraining) {
  LoadBalancer lb({.strategy = "round_robin", .num_machines = 3});
  EXPECT_EQ(lb.Route(0), 0);
  EXPECT_EQ(lb.Route(0), 1);
  EXPECT_EQ(lb.Route(0), 2);
  EXPECT_EQ(lb.Route(0), 0);
  lb.SetDraining(1, true);
  EXPECT_EQ(lb.Route(0), 2);
  EXPECT_EQ(lb.Route(0), 0);
  EXPECT_EQ(lb.Route(0), 2);
}

TEST(LoadBalancerTest, LeastLoadedPicksArgminLowestIndexFirst) {
  LoadBalancer lb({.strategy = "least_loaded", .num_machines = 3});
  EXPECT_EQ(lb.Route(0), 0);  // all tied -> lowest index
  lb.OnDispatch(0);
  EXPECT_EQ(lb.Route(0), 1);
  lb.OnDispatch(1);
  EXPECT_EQ(lb.Route(0), 2);
  lb.OnDispatch(2);
  lb.OnComplete(1);
  EXPECT_EQ(lb.Route(0), 1);
}

TEST(LoadBalancerTest, ShedsWhenEveryMachineIsAtCap) {
  LoadBalancer lb({.strategy = "least_loaded", .num_machines = 2,
                   .shed_outstanding = 1});
  EXPECT_EQ(lb.Route(0), 0);
  lb.OnDispatch(0);
  EXPECT_EQ(lb.Route(0), 1);
  lb.OnDispatch(1);
  EXPECT_EQ(lb.Route(0), -1);  // brownout
  lb.OnComplete(0);
  EXPECT_EQ(lb.Route(0), 0);
}

TEST(LoadBalancerTest, ConsistentHashIsStableAndFailsOver) {
  LoadBalancer lb({.strategy = "consistent_hash", .num_machines = 4,
                   .virtual_nodes = 32});
  const uint64_t session = 12345;
  const int home = lb.Route(session);
  ASSERT_GE(home, 0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(lb.Route(session), home);  // stateless and stable
  }
  lb.SetDraining(home, true);
  const int failover = lb.Route(session);
  ASSERT_GE(failover, 0);
  EXPECT_NE(failover, home);
  lb.SetDraining(home, false);
  EXPECT_EQ(lb.Route(session), home);  // sessions return after the drain
}

TEST(LoadBalancerTest, ConsistentHashSpreadsSessions) {
  LoadBalancer lb({.strategy = "consistent_hash", .num_machines = 8,
                   .virtual_nodes = 64});
  std::vector<int> hits(8, 0);
  for (uint64_t s = 0; s < 4096; ++s) {
    const int m = lb.Route(s);
    ASSERT_GE(m, 0);
    ++hits[static_cast<size_t>(m)];
  }
  for (int m = 0; m < 8; ++m) {
    EXPECT_GT(hits[static_cast<size_t>(m)], 0) << "machine " << m << " owns no keys";
  }
}

// ---- Teardown ----------------------------------------------------------------

// Start() wakes every agent, but an agent first runs when the loop advances.
// A machine must also tear down before that: process shutdown unregisters
// each agent before killing it, so the kill reaches the agent class for an
// agent it no longer knows.
TEST(TeardownTest, AgentsThatNeverRanShutDownCleanly) {
  {
    SimulationContext sim({.topology = Topology::Make("t", 1, 2, 1, 2)});
    auto enclave = sim.CreateEnclave(CpuMask::AllUpTo(2));
    auto process =
        sim.CreateAgentProcess(enclave.get(), std::make_unique<PerCpuFifoPolicy>());
    process->Start();
    EXPECT_EQ(process->iterations(), 0u);
  }
  MachineSim machine(scenario::GetBuiltinScenario("overload_recovery"),
                     MachineSim::Options{});
  EXPECT_EQ(machine.loop().executed_count(), 0u);
}

// ---- Engine work of one ghOSt machine -------------------------------------

// The global_agent benchmark shape (perfbench/workloads): one spinning
// centralized FIFO agent group-commits 400 workers on 112 CPUs.
constexpr char kGlobalAgentSpec[] = R"json({
  "name": "global_agent_ruler",
  "seed": 42,
  "warmup_ms": 1, "measure_ms": 3, "drain_ms": 1,
  "topology": {"preset": "skylake112"},
  "policy": {"kind": "centralized_fifo", "timeslice_us": 0},
  "enclave": {"cpu_first": 0},
  "workload": {
    "kind": "request_service", "num_workers": 400,
    "service": {"model": "fixed", "fixed_us": 40},
    "phases": [{"duration_ms": 5, "qps": 1400000}]
  },
  "invariants": {"enabled": false}
})json";

// The engine's exact work over 5 ms of that machine. The counts depend only
// on the program, so a rework of the engine, the kernel or the ghOSt layer
// that claims to do the same work must leave every one of them unchanged.
TEST(MachineSimWorkTest, GlobalAgentEngineWorkIsPinned) {
  std::string error;
  const std::optional<scenario::ScenarioSpec> spec =
      scenario::ScenarioSpec::Parse(kGlobalAgentSpec, &error);
  ASSERT_TRUE(spec.has_value()) << error;
  MachineSim machine(*spec, MachineSim::Options{});
  machine.AdvanceUntil(Milliseconds(5));

  const EventLoop::Work& w = machine.loop().work();
  EXPECT_EQ(w.scheduled_zero, 14156u);
  EXPECT_EQ(w.scheduled_near, 22200u);
  EXPECT_EQ(w.scheduled_far, 13515u);
  EXPECT_EQ(w.fired, 50234u);
  EXPECT_EQ(w.cancelled, 0u);
  EXPECT_EQ(w.rescheduled, 8263u);
  EXPECT_EQ(w.wheel_inserts, 44651u);
  EXPECT_EQ(w.cascade_reinserts, 19880u);
}

// ---- Cluster determinism ---------------------------------------------------

constexpr char kFleetSpec[] = R"json({
  "name": "fleet_unit",
  "seed": 7,
  "warmup_ms": 2, "measure_ms": 10, "drain_ms": 5,
  "topology": {"preset": "custom", "sockets": 1, "cores_per_socket": 2, "smt": 2, "cores_per_ccx": 2},
  "policy": {"kind": "shinjuku", "timeslice_us": 30},
  "enclave": {"cpu_first": 1},
  "workload": {
    "kind": "request_service", "num_workers": 8,
    "service": {"model": "exponential", "mean_us": 60},
    "phases": [{"duration_ms": 17, "qps": 30000}]
  },
  "fleet": {
    "machines": 4, "sessions": 64, "rpc_fanout": 2,
    "balancer": {"policy": "least_loaded", "shed_outstanding": 32}
  }
})json";

scenario::ScenarioSpec ParseSpec(const char* json) {
  std::string error;
  std::optional<scenario::ScenarioSpec> spec = scenario::ScenarioSpec::Parse(json, &error);
  EXPECT_TRUE(spec.has_value()) << error;
  return *spec;
}

TEST(ClusterTest, FleetRunsAndCompletesCrossMachineRpcs) {
  const scenario::ScenarioSpec spec = ParseSpec(kFleetSpec);
  const scenario::ScenarioResult result = scenario::RunScenario(spec);
  EXPECT_GT(result.exact.at("generated"), 0);
  EXPECT_GT(result.exact.at("completed"), 0);
  // Every arrival fans out to a root plus one leaf RPC.
  EXPECT_GT(result.exact.at("rpcs"), result.exact.at("completed"));
  EXPECT_GT(result.exact.at("net_messages"), 0);
  EXPECT_EQ(result.exact.at("invariants_ok"), 1);
}

TEST(ClusterTest, ResultIsByteIdenticalSerialVsJobs) {
  const scenario::ScenarioSpec spec = ParseSpec(kFleetSpec);
  const std::string serial = scenario::RenderGolden(
      scenario::RunScenario(spec, nullptr, /*jobs=*/1));
  for (int jobs : {2, 3, 8}) {
    EXPECT_EQ(serial,
              scenario::RenderGolden(scenario::RunScenario(spec, nullptr, jobs)))
        << "fleet result depends on --jobs=" << jobs;
  }
}

// fleet_rpc (perfbench/workloads) with machines, sessions and qps x32 and a
// 5 ms horizon: the largest fleet the schema accepts.
constexpr char kFleet256Spec[] = R"json({
  "name": "fleet_256",
  "seed": 42,
  "warmup_ms": 1, "measure_ms": 3, "drain_ms": 1,
  "topology": {"preset": "custom", "sockets": 1, "cores_per_socket": 2, "smt": 2, "cores_per_ccx": 2},
  "policy": {"kind": "per_cpu_fifo"},
  "enclave": {"cpu_first": 1},
  "workload": {
    "kind": "request_service", "num_workers": 24,
    "service": {"model": "exponential", "mean_us": 100},
    "phases": [{"duration_ms": 4, "qps": 2560000}]
  },
  "invariants": {"enabled": true, "period_us": 250},
  "fleet": {
    "machines": 256, "sessions": 16384, "rpc_fanout": 2,
    "balancer": {"policy": "least_loaded", "shed_outstanding": 48},
    "network": {"latency_us": 50, "bandwidth_gbps": 10, "request_bytes": 1500, "response_bytes": 4096}
  }
})json";

TEST(ClusterTest, TwoHundredFiftySixMachinesMatchOnOneAndFourJobs) {
  const scenario::ScenarioSpec spec = ParseSpec(kFleet256Spec);
  const scenario::ScenarioResult serial = scenario::RunScenario(spec, nullptr, 1);
  EXPECT_GT(serial.exact.at("completed"), 0);
  EXPECT_GT(serial.exact.at("m255_completed"), 0);
  EXPECT_EQ(serial.exact.at("invariants_ok"), 1);
  EXPECT_EQ(scenario::RenderGolden(serial),
            scenario::RenderGolden(scenario::RunScenario(spec, nullptr, 4)));
}

TEST(ClusterTest, RepeatedRunsAreByteIdentical) {
  const scenario::ScenarioSpec spec = ParseSpec(kFleetSpec);
  const std::string first =
      scenario::RenderGolden(scenario::RunScenario(spec, nullptr, 4));
  const std::string second =
      scenario::RenderGolden(scenario::RunScenario(spec, nullptr, 4));
  EXPECT_EQ(first, second);
}

// Counters in `stats`' snapshot whose value is not zero.
int NonzeroCounters(const StatsRegistry& stats) {
  const std::optional<JsonValue> snapshot = JsonValue::Parse(stats.ToJson());
  int nonzero = 0;
  for (const auto& [name, value] : snapshot->Find("counters")->object) {
    nonzero += value.number != 0;
  }
  return nonzero;
}

TEST(ClusterTest, StatsMergeAcrossMachinesMatchesSerial) {
  const scenario::ScenarioSpec spec = ParseSpec(kFleetSpec);
  StatsRegistry serial_stats;
  StatsRegistry parallel_stats;
  serial_stats.Enable();
  parallel_stats.Enable();
  scenario::RunScenario(spec, &serial_stats, 1);
  scenario::RunScenario(spec, &parallel_stats, 8);
  EXPECT_GT(NonzeroCounters(serial_stats), 0);
  EXPECT_EQ(serial_stats.ToJson(), parallel_stats.ToJson());
}

// A registry its owner left disabled stays disabled and records nothing, on
// one machine and on a fleet: a bench run without --json pays for no stats.
TEST(ClusterTest, DisabledRegistryStaysDisabledAndEmpty) {
  scenario::ScenarioSpec single = ParseSpec(kFleetSpec);
  single.fleet.reset();
  for (const scenario::ScenarioSpec& spec : {single, ParseSpec(kFleetSpec)}) {
    const char* shape = spec.fleet.has_value() ? "fleet" : "single machine";
    StatsRegistry stats;
    scenario::RunScenario(spec, &stats, 2);
    EXPECT_FALSE(stats.enabled()) << shape;
    EXPECT_EQ(NonzeroCounters(stats), 0) << shape;
  }
}

TEST(ClusterTest, PartitionHealChaosLeavesInvariantsClean) {
  scenario::ScenarioSpec spec = ParseSpec(kFleetSpec);
  // Partition two machines at staggered times mid-run, heal both before the
  // end. Roots routed to a parked machine stall until the heal; everything
  // must still drain cleanly, with every machine's invariants green.
  scenario::FleetEventSpec down0{4.0, "link_down", 1};
  scenario::FleetEventSpec up0{7.0, "link_up", 1};
  scenario::FleetEventSpec down1{6.0, "link_down", 2};
  scenario::FleetEventSpec up1{9.0, "link_up", 2};
  spec.fleet->plan = {down0, up0, down1, up1};

  const scenario::ScenarioResult result = scenario::RunScenario(spec, nullptr, 4);
  EXPECT_GT(result.exact.at("net_parked"), 0) << "partition never parked a message";
  EXPECT_EQ(result.exact.at("invariants_ok"), 1);
  EXPECT_EQ(result.exact.at("invariant_violations"), 0);
  EXPECT_GT(result.exact.at("completed"), 0);

  // Chaos keeps the determinism contract too.
  const std::string again =
      scenario::RenderGolden(scenario::RunScenario(spec, nullptr, 1));
  EXPECT_EQ(again, scenario::RenderGolden(scenario::RunScenario(spec, nullptr, 8)));
}

TEST(ClusterTest, LinkSlowerThanTheRunStrandsRequestsWithoutAborting) {
  // Each request takes 6e18 ns to send, so the link's backlog passes int64
  // within a few requests; those requests stay in flight instead.
  const scenario::ScenarioSpec spec = ParseSpec(R"json({
    "name": "y", "workload": {"phases": [{"duration_ms": 100, "qps": 20000}]},
    "fleet": {"machines": 2, "network": {"bandwidth_gbps": 2e-15}}})json");
  const scenario::ScenarioResult result = scenario::RunScenario(spec);
  EXPECT_GT(result.exact.at("generated"), 0);
  EXPECT_EQ(result.exact.at("completed"), 0);
  EXPECT_EQ(result.exact.at("invariants_ok"), 1);
}

TEST(ClusterTest, SingleMachineFleetIsValid) {
  scenario::ScenarioSpec spec = ParseSpec(kFleetSpec);
  spec.fleet->machines = 1;
  spec.fleet->rpc_fanout = 1;
  const scenario::ScenarioResult result = scenario::RunScenario(spec);
  EXPECT_GT(result.exact.at("completed"), 0);
  EXPECT_EQ(result.exact.at("invariants_ok"), 1);
}

TEST(ClusterTest, LbDrainShiftsTrafficAway) {
  scenario::ScenarioSpec spec = ParseSpec(kFleetSpec);
  scenario::FleetEventSpec drain{2.0, "lb_drain", 3};
  spec.fleet->plan = {drain};
  const scenario::ScenarioResult result = scenario::RunScenario(spec);
  // Machine 3 only serves leaf RPCs (from machine 2's roots) after the
  // drain, while machine 1 serves both roots and leaves; the drained
  // machine's completion count must trail it.
  EXPECT_LT(result.exact.at("m3_completed"), result.exact.at("m1_completed"));
  EXPECT_EQ(result.exact.at("invariants_ok"), 1);
}

}  // namespace
}  // namespace fleet
}  // namespace gs
