// Tests for the scheduling trace (tracepoint-style introspection).
#include <gtest/gtest.h>

#include "src/agent/agent_process.h"
#include "src/policies/per_cpu_fifo.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace gs {
namespace {

TEST(TraceTest, DisabledByDefault) {
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  SpawnOneShot(m.kernel(), "t", Microseconds(10));
  m.RunFor(Milliseconds(1));
  EXPECT_EQ(m.kernel().trace().size(), 0u);
}

TEST(TraceTest, RecordsTaskLifecycle) {
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  m.kernel().trace().Enable();
  Task* t = SpawnOneShot(m.kernel(), "t", Microseconds(10));
  m.RunFor(Milliseconds(1));

  const auto events = m.kernel().trace().ForTask(t->tid());
  ASSERT_GE(events.size(), 4u);
  // wakeup -> switch_in -> exit -> switch_out, in time order.
  EXPECT_EQ(events[0].type, TraceEventType::kWakeup);
  EXPECT_EQ(events[1].type, TraceEventType::kSwitchIn);
  EXPECT_EQ(events[2].type, TraceEventType::kExit);
  EXPECT_EQ(events[3].type, TraceEventType::kSwitchOut);
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].when, events[i - 1].when);
  }
}

TEST(TraceTest, RecordsGhostMessagesAndCommits) {
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  m.kernel().trace().Enable();
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(2));
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(),
                       std::make_unique<PerCpuFifoPolicy>());
  process.Start();
  Task* t = m.kernel().CreateTask("w");
  enclave->AddTask(t);
  m.kernel().StartBurst(t, Microseconds(10), [&m](Task* task) { m.kernel().Exit(task); });
  m.kernel().Wake(t);
  m.RunFor(Milliseconds(2));

  EXPECT_GE(m.kernel().trace().Filter(TraceEventType::kMessage).size(), 3u)
      << "created, wakeup, dead at minimum";
  EXPECT_GE(m.kernel().trace().Filter(TraceEventType::kTxnCommit).size(), 1u);
  EXPECT_GE(m.kernel().trace().Filter(TraceEventType::kAgentIter).size(), 1u);
  // The dump is human-readable and non-empty.
  const std::string dump = m.kernel().trace().Dump();
  EXPECT_NE(dump.find("txn_commit"), std::string::npos);
  EXPECT_NE(dump.find("switch_in"), std::string::npos);
}

TEST(TraceTest, BoundedCapacityDropsOldest) {
  Trace trace(/*capacity=*/8);
  trace.Enable();
  for (int i = 0; i < 20; ++i) {
    trace.Record(i, TraceEventType::kWakeup, 0, i);
  }
  EXPECT_EQ(trace.size(), 8u);
  EXPECT_EQ(trace.dropped(), 12u);
  EXPECT_EQ(trace.events().front().tid, 12);
  trace.Clear();
  EXPECT_EQ(trace.size(), 0u);
  EXPECT_EQ(trace.dropped(), 0u);
}

TEST(TraceTest, FilterAndForTask) {
  Trace trace;
  trace.Enable();
  trace.Record(1, TraceEventType::kWakeup, 0, 7);
  trace.Record(2, TraceEventType::kSwitchIn, 0, 7);
  trace.Record(3, TraceEventType::kWakeup, 1, 8);
  EXPECT_EQ(trace.Filter(TraceEventType::kWakeup).size(), 2u);
  EXPECT_EQ(trace.ForTask(7).size(), 2u);
  EXPECT_EQ(trace.ForTask(9).size(), 0u);
}

}  // namespace
}  // namespace gs
