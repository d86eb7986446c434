// Tests for the GlobalAgentPolicy shape (src/agent/sdk/global_agent.h): the
// agents off the global CPU never drain, and a §3.3 hot handoff leaves the
// queue to the successor.
#include <gtest/gtest.h>

#include "src/agent/agent_process.h"
#include "src/agent/sdk/global_agent.h"
#include "src/sim/simulation.h"

namespace gs {
namespace {

// Records the agent CPU of every TaskNew and every Schedule() pass.
class ProbePolicy : public GlobalAgentPolicy {
 public:
  ProbePolicy(bool hot_handoff, AgentAction action)
      : GlobalAgentPolicy(/*global_cpu=*/0, hot_handoff), action_(action) {}
  const char* name() const override { return "probe-global"; }

  std::vector<int> new_cpus;       // agent CPU per TaskNew hook
  std::vector<int> schedule_cpus;  // agent CPU per Schedule() pass

 protected:
  void TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) override {
    new_cpus.push_back(ctx.agent_cpu());
  }
  AgentAction Schedule(AgentContext& ctx) override {
    schedule_cpus.push_back(ctx.agent_cpu());
    return action_;
  }

 private:
  const AgentAction action_;
};

TEST(GlobalAgentPolicyTest, InactiveAgentBlocksAndLeavesMessagesQueued) {
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(2));
  auto policy = std::make_unique<ProbePolicy>(/*hot_handoff=*/false, AgentAction::kBlock);
  ProbePolicy* probe = policy.get();
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(), std::move(policy));
  process.Start();
  m.RunFor(Milliseconds(1));  // both agents ran once and blocked
  // Route default-queue wakeups to the inactive agent: only it wakes up.
  Task* inactive = process.agent_on(1);
  enclave->ConfigQueueWakeup(enclave->default_queue(), inactive);

  const uint64_t iterations = process.iterations();
  Task* t = m.kernel().CreateTask("w");
  enclave->AddTask(t);
  m.RunFor(Milliseconds(1));

  EXPECT_GT(process.iterations(), iterations) << "the post woke the inactive agent";
  EXPECT_EQ(inactive->state(), TaskState::kBlocked);
  EXPECT_EQ(enclave->default_queue()->size(), 1u) << "TASK_NEW must stay queued";
  EXPECT_TRUE(probe->new_cpus.empty());
  for (int cpu : probe->schedule_cpus) {
    EXPECT_EQ(cpu, 0) << "only the global agent schedules";
  }
}

TEST(GlobalAgentPolicyTest, HandoffYieldsBeforeDrainingAndSuccessorDrains) {
  SimulationContext m({.topology = Topology::Make("t", 1, 4, 1, 4)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(4));
  auto policy = std::make_unique<ProbePolicy>(/*hot_handoff=*/true, AgentAction::kPollWait);
  ProbePolicy* probe = policy.get();
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(), std::move(policy));
  process.Start();
  m.RunFor(Milliseconds(1));  // the global agent poll-waits on CPU 0
  ASSERT_EQ(probe->global_cpu(), 0);

  // In one instant a kernel thread wants CPU 0 and a TASK_NEW lands in the
  // queue; the post pokes the global agent into its handoff iteration.
  Task* daemon = m.kernel().CreateTask("kworker");
  m.kernel().SetAffinity(daemon, CpuMask::Single(0));
  m.kernel().StartBurst(daemon, Microseconds(100), [&m](Task* d) { m.kernel().Exit(d); });
  m.kernel().Wake(daemon);
  Task* t = m.kernel().CreateTask("w");
  enclave->AddTask(t);
  m.RunFor(Milliseconds(1));

  EXPECT_EQ(probe->hot_handoffs(), 1u);
  const int successor = probe->global_cpu();
  EXPECT_NE(successor, 0);
  // The TASK_NEW was dispatched by the successor, so CPU 0 yielded with it
  // still queued.
  EXPECT_EQ(probe->new_cpus, std::vector<int>{successor});
  EXPECT_TRUE(enclave->default_queue()->empty());
  EXPECT_EQ(daemon->state(), TaskState::kDead) << "the kernel thread got CPU 0";
}

}  // namespace
}  // namespace gs
