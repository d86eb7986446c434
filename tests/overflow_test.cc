// Message-queue overflow: the recoverable path (§3.1/§3.4).
//
// A full queue no longer crashes the simulated kernel. The message is
// dropped, Tseq still advances (a detectable gap, as in the real uAPI), the
// per-task resync flag and the enclave overflow latch are raised, and the
// consumer is still woken. The agent runtime recovers with the upgrade
// machinery: FlushAllQueues() + Policy::Restore(TaskDump()).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/agent/agent_process.h"
#include "src/policies/centralized_fifo.h"
#include "src/sim/simulation.h"
#include "src/verify/invariants.h"
#include "tests/test_util.h"

namespace gs {
namespace {

Topology SmallTopo(int cores) { return Topology::Make("test", 1, cores, 1, cores); }

// Unit level: fill a tiny queue past capacity and verify the kernel-side
// overflow bookkeeping plus recovery via TaskDump + FlushAllQueues.
TEST(OverflowTest, TinyQueueDropsAndRecoversViaDumpAndFlush) {
  SimulationContext machine({.topology = SmallTopo(2)});
  Enclave::Config config;
  config.default_queue_capacity = 2;
  auto enclave = machine.CreateEnclave(CpuMask::AllUpTo(2), config);

  // No agent is draining, so THREAD_CREATED messages pile up: 5 posts into a
  // 2-slot ring must drop 3.
  std::vector<Task*> tasks;
  for (int i = 0; i < 5; ++i) {
    Task* task = machine.kernel().CreateTask("t" + std::to_string(i));
    enclave->AddTask(task);
    tasks.push_back(task);
  }
  EXPECT_EQ(enclave->default_queue()->size(), 2u);
  EXPECT_EQ(enclave->messages_dropped(), 3u);
  EXPECT_EQ(enclave->default_queue()->overflows(), 3u);
  EXPECT_TRUE(enclave->overflow_pending());

  // Tseq advanced for dropped messages too: the gap is how a real agent
  // notices it missed something.
  for (Task* task : tasks) {
    EXPECT_EQ(enclave->Find(task->tid())->tseq, 1u) << task->name();
  }

  // The dump is complete despite the drops — nothing was lost kernel-side.
  EXPECT_EQ(enclave->TaskDump().size(), 5u);

  // Recovery: flush supersedes the (partial) message history and clears all
  // overflow state; the latch hands ownership of the resync to one caller.
  EXPECT_TRUE(enclave->ConsumeOverflowPending());
  EXPECT_FALSE(enclave->ConsumeOverflowPending());
  enclave->FlushAllQueues();
  EXPECT_EQ(enclave->default_queue()->size(), 0u);
  EXPECT_FALSE(enclave->overflow_pending());
  for (Task* task : tasks) {
    EXPECT_FALSE(enclave->Find(task->tid())->resync) << task->name();
  }
}

// End to end: a real agent behind a tiny queue hits overflow from a thread
// herd, resyncs from the dump, and finishes every thread with no lost work.
TEST(OverflowTest, AgentRecoversFromRealOverflowUnderLoad) {
  SimulationContext machine({.topology = SmallTopo(2)});
  Enclave::Config config;
  config.default_queue_capacity = 4;
  config.watchdog_timeout = Milliseconds(50);
  auto enclave = machine.CreateEnclave(CpuMask::AllUpTo(2), config);
  AgentProcess process(&machine.kernel(), machine.ghost_class(), enclave.get(),
                       std::make_unique<CentralizedFifoPolicy>());
  process.Start();
  InvariantChecker checker(&machine.kernel());
  checker.Watch(enclave.get());
  checker.Start();
  machine.RunFor(Microseconds(100));

  // A herd of 10 simultaneous arrivals floods the 4-slot default queue.
  std::vector<Task*> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back(SpawnOneShot(machine.kernel(), "w" + std::to_string(i),
                                 Microseconds(300)));
    enclave->AddTask(tasks.back());
  }
  machine.RunFor(Milliseconds(100));

  EXPECT_GT(enclave->messages_dropped(), 0u);
  EXPECT_GE(process.resyncs(), 1u);
  EXPECT_FALSE(enclave->destroyed()) << "resync must beat the watchdog";
  for (Task* task : tasks) {
    EXPECT_EQ(task->state(), TaskState::kDead) << task->name();
    EXPECT_EQ(task->total_runtime(), Microseconds(300)) << task->name();
  }
  EXPECT_TRUE(checker.ok()) << checker.Report();
}

}  // namespace
}  // namespace gs
