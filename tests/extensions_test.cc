// Tests for the §5 / §4.3 extension features: tick-less mode and
// shared-memory scheduling hints.
#include <gtest/gtest.h>

#include "src/agent/agent_process.h"
#include "src/agent/sdk/global_agent.h"
#include "src/policies/centralized_fifo.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace gs {
namespace {

TEST(TicklessTest, DisabledCpusReceiveNoTicks) {
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  auto enclave = m.CreateEnclave(CpuMask::Single(1));
  enclave->SetTickless(true);
  m.RunFor(Milliseconds(50));
  EXPECT_EQ(m.kernel().ticks_delivered(1), 0u);
  EXPECT_GT(m.kernel().ticks_delivered(0), 40u);
  // Re-enabling resumes delivery.
  enclave->SetTickless(false);
  m.RunFor(Milliseconds(50));
  EXPECT_GT(m.kernel().ticks_delivered(1), 40u);
}

TEST(TicklessTest, TickCostStealsGuestTime) {
  CostModel cost;
  cost.tick_cost = Microseconds(10);
  SimulationContext m({.topology = Topology::Make("t", 1, 1, 1, 1), .cost = cost});
  Time done = -1;
  Task* t = m.kernel().CreateTask("guest");
  m.kernel().StartBurst(t, Milliseconds(10), [&](Task* task) {
    done = m.now();
    m.kernel().Exit(task);
  });
  m.kernel().Wake(t);
  m.RunFor(Milliseconds(50));
  // ~10 ticks during a 10 ms burst, each stealing 10 us.
  ASSERT_GE(done, 0);
  EXPECT_GT(done, Milliseconds(10) + Microseconds(80));
  EXPECT_LT(done, Milliseconds(10) + Microseconds(130));
}

TEST(TicklessTest, DestroyRestoresTicks) {
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(2));
  enclave->SetTickless(true);
  EXPECT_FALSE(m.kernel().tick_enabled(0));
  enclave->Destroy();
  EXPECT_TRUE(m.kernel().tick_enabled(0));
  EXPECT_TRUE(m.kernel().tick_enabled(1));
}

TEST(TicklessTest, NoSliceEnforcementWithoutTicks) {
  // Two CFS hogs on one tickless CPU: without the tick there is no slice
  // expiry, so the first one runs unboundedly (exactly why tickless is only
  // safe when an agent supervises the CPU).
  SimulationContext m({.topology = Topology::Make("t", 1, 1, 1, 1)});
  m.kernel().SetTickEnabled(0, false);
  Task* a = SpawnHog(m.kernel(), "a", nullptr, Milliseconds(1));
  Task* b = SpawnHog(m.kernel(), "b", nullptr, Milliseconds(1));
  m.RunFor(Milliseconds(100));
  const Duration max_rt = std::max(a->total_runtime(), b->total_runtime());
  const Duration min_rt = std::min(a->total_runtime(), b->total_runtime());
  EXPECT_GT(max_rt, Milliseconds(95));
  EXPECT_LT(min_rt, Milliseconds(5));
}

TEST(HintsTest, RoundTripThroughSharedMemory) {
  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(2));
  Task* t = m.kernel().CreateTask("worker");
  enclave->AddTask(t);
  EXPECT_EQ(enclave->Hint(t->tid()), 0u);
  enclave->SetHint(t->tid(), 0xfeedULL);
  EXPECT_EQ(enclave->Hint(t->tid()), 0xfeedULL);
  // Unknown tids read as 0 and writes are dropped.
  enclave->SetHint(424242, 7);
  EXPECT_EQ(enclave->Hint(424242), 0u);
}

TEST(HintsTest, PolicyCanReadHints) {
  // A tiny policy that orders dispatch by hint value (lower = first).
  class HintPolicy : public GlobalAgentPolicy {
   public:
    HintPolicy() : GlobalAgentPolicy(/*global_cpu=*/-1, /*hot_handoff=*/false) {}
    const char* name() const override { return "hint"; }
    std::vector<int64_t> order;

   protected:
    void TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) override {
      if (task->runnable) {
        waiting_.push_back(task->tid);
      }
    }
    void TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) override {
      waiting_.push_back(task->tid);
    }
    AgentAction Schedule(AgentContext& ctx) override {
      std::sort(waiting_.begin(), waiting_.end(), [&](int64_t a, int64_t b) {
        return ctx.ReadHint(a) < ctx.ReadHint(b);
      });
      const CpuMask avail = ctx.AvailableCpus();
      bool progress = false;
      if (!waiting_.empty() && !avail.Empty()) {
        Transaction txn = AgentContext::MakeTxn(waiting_.front(), avail.First());
        Transaction* ptr = &txn;
        ctx.Commit(ptr);
        if (txn.committed()) {
          order.push_back(waiting_.front());
          waiting_.erase(waiting_.begin());
          progress = true;
        }
      }
      return progress ? AgentAction::kRunAgain : AgentAction::kPollWait;
    }

   private:
    std::vector<int64_t> waiting_;
  };

  SimulationContext m({.topology = Topology::Make("t", 1, 2, 1, 2)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(2));
  auto policy = std::make_unique<HintPolicy>();
  HintPolicy* policy_ptr = policy.get();
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(), std::move(policy));
  process.Start();

  // Three workers with hints 3, 1, 2 — the policy must run them 1, 2, 3.
  std::vector<Task*> tasks;
  const uint64_t hints[] = {3, 1, 2};
  for (int i = 0; i < 3; ++i) {
    Task* t = m.kernel().CreateTask("w" + std::to_string(i));
    enclave->AddTask(t);
    enclave->SetHint(t->tid(), hints[i]);
    m.kernel().StartBurst(t, Microseconds(100), [&m](Task* task) { m.kernel().Exit(task); });
    tasks.push_back(t);
  }
  for (Task* t : tasks) {
    m.kernel().Wake(t);
  }
  m.RunFor(Milliseconds(10));
  ASSERT_EQ(policy_ptr->order.size(), 3u);
  EXPECT_EQ(policy_ptr->order[0], tasks[1]->tid());
  EXPECT_EQ(policy_ptr->order[1], tasks[2]->tid());
  EXPECT_EQ(policy_ptr->order[2], tasks[0]->tid());
}

}  // namespace
}  // namespace gs
