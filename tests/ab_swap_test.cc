// Live A/B hot-swap tests (§3.4 agent upgrade, extended): the Restore()
// contract for hostile outgoing policies, lane-counter accounting that must
// partition the single-policy totals, and byte-identical scenario results
// across --jobs.
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "src/agent/agent_process.h"
#include "src/agent/policy.h"
#include "src/policies/ab_test_policy.h"
#include "src/policies/per_cpu_fifo.h"
#include "src/scenario/registry.h"
#include "src/scenario/scenario_runner.h"
#include "src/sim/simulation.h"

namespace gs {
namespace {

// A legal-but-hostile policy that acknowledges nothing: it drains the
// enclave's default queue (so the kernel side stays healthy) but never
// places a thread anywhere. Stand-in for the fuzzer's generated policies in
// the upgrade-contract test: every thread announced while it reigns is a
// thread the outgoing policy never scheduled.
class DeafPolicy : public Policy {
 public:
  const char* name() const override { return "deaf"; }
  void Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) override {
    enclave_ = enclave;
    boss_cpu_ = enclave->cpus().First();
    enclave->ConfigQueueWakeup(enclave->default_queue(),
                               process->agent_on(boss_cpu_));
  }

 protected:
  void CollectQueues(AgentContext& ctx, std::vector<MessageQueue*>* queues) override {
    if (ctx.agent_cpu() == boss_cpu_) {
      queues->push_back(enclave_->default_queue());
    }
  }
  AgentAction Schedule(AgentContext& ctx) override { return AgentAction::kBlock; }

 private:
  Enclave* enclave_ = nullptr;
  int boss_cpu_ = -1;
};

Task* OneShotWorker(SimulationContext& m, Enclave& enclave, const std::string& name,
                    Duration burst) {
  Task* t = m.kernel().CreateTask(name);
  enclave.AddTask(t);
  Kernel* kernel = &m.kernel();
  kernel->StartBurst(t, burst, [kernel](Task* task) { kernel->Exit(task); });
  kernel->Wake(t);
  return t;
}

TEST(AbSwapTest, RestoreReplacesTasksTheOutgoingPolicyNeverPlaced) {
  SimulationContext m({.topology = Topology::Make("t", 1, 4, 1, 4)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(4));
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(),
                       std::make_unique<DeafPolicy>());
  process.Start();

  std::vector<Task*> workers;
  for (int i = 0; i < 6; ++i) {
    workers.push_back(
        OneShotWorker(m, *enclave, "w" + std::to_string(i), Microseconds(100)));
  }
  m.RunFor(Milliseconds(5));
  for (Task* w : workers) {
    ASSERT_NE(w->state(), TaskState::kDead)
        << w->name() << " ran under a policy that never schedules";
  }

  // Swap in a real policy mid-run. Its Restore() sees only the kernel dump —
  // the deaf policy hands over no state — and must re-place every thread the
  // old policy sat on, never silently dropping them from the runqueue set.
  std::unique_ptr<Policy> old =
      process.SwapPolicy(std::make_unique<PerCpuFifoPolicy>());
  EXPECT_EQ(std::string(old->name()), "deaf");
  EXPECT_EQ(process.policy_swaps(), 1u);
  m.RunFor(Milliseconds(20));
  for (Task* w : workers) {
    EXPECT_EQ(w->state(), TaskState::kDead)
        << w->name() << " was dropped across the policy swap";
  }
  EXPECT_FALSE(enclave->destroyed());
}

TEST(AbSwapTest, SwapBackAndForthUnderLoadLosesNothing) {
  SimulationContext m({.topology = Topology::Make("t", 1, 4, 1, 4)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(4));
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(),
                       std::make_unique<PerCpuFifoPolicy>());
  process.Start();

  std::vector<Task*> workers;
  for (int i = 0; i < 8; ++i) {
    workers.push_back(
        OneShotWorker(m, *enclave, "w" + std::to_string(i), Milliseconds(2)));
  }
  // Promote a canary and roll it back while the workers are mid-burst.
  m.RunFor(Milliseconds(1));
  AbTestPolicy::Options options;
  options.canary_percent = 50;
  process.SwapPolicy(std::make_unique<AbTestPolicy>(options));
  m.RunFor(Milliseconds(2));
  process.SwapPolicy(std::make_unique<PerCpuFifoPolicy>());
  EXPECT_EQ(process.policy_swaps(), 2u);
  m.RunFor(Milliseconds(30));
  for (Task* w : workers) {
    EXPECT_EQ(w->state(), TaskState::kDead) << w->name();
  }
  EXPECT_FALSE(enclave->destroyed());
}

// ---- Scenario-level accounting ---------------------------------------------

scenario::ScenarioSpec SpecWithCanaryPercent(int percent) {
  scenario::ScenarioSpec spec = scenario::GetBuiltinScenario("ab_hot_swap");
  spec.ab_test->canary.percent = percent;
  // With the behavioral delta off, the canary lane schedules exactly like
  // base, so the whole simulation is identical whatever the split — only the
  // counter attribution moves.
  spec.ab_test->canary.lifo = false;
  return spec;
}

TEST(AbScenarioTest, LaneCountersPartitionTheSinglePolicyTotals) {
  const scenario::ScenarioResult split = RunScenario(SpecWithCanaryPercent(30));
  const scenario::ScenarioResult single = RunScenario(SpecWithCanaryPercent(0));
  // The split run's per-lane counters must sum to the single-policy totals.
  EXPECT_EQ(split.exact.at("ab_base_scheduled") +
                split.exact.at("ab_canary_scheduled"),
            single.exact.at("ab_base_scheduled") +
                single.exact.at("ab_canary_scheduled"));
  EXPECT_EQ(split.exact.at("completed"), single.exact.at("completed"));
  EXPECT_EQ(split.exact.at("generated"), single.exact.at("generated"));
  // And the split actually splits: both lanes saw work. (The 0%-run still
  // counts canary work inside the promote window, where the whole enclave
  // runs at 100% canary — so it is a lower bound, not zero.)
  EXPECT_GT(split.exact.at("ab_base_scheduled"), 0);
  EXPECT_GT(split.exact.at("ab_canary_scheduled"),
            single.exact.at("ab_canary_scheduled"));
  // Promote + rollback both happened, in both runs.
  EXPECT_EQ(split.exact.at("policy_swaps"), 2);
  EXPECT_EQ(single.exact.at("policy_swaps"), 2);
}

TEST(AbScenarioTest, ResultIsByteIdenticalAcrossJobs) {
  const scenario::ScenarioSpec spec = scenario::GetBuiltinScenario("ab_hot_swap");
  const std::string one = RenderGolden(RunScenario(spec, nullptr, /*jobs=*/1));
  const std::string four = RenderGolden(RunScenario(spec, nullptr, /*jobs=*/4));
  EXPECT_EQ(one, four);
}

TEST(FuzzScenarioTest, ResultIsByteIdenticalAcrossJobs) {
  const scenario::ScenarioSpec spec = scenario::GetBuiltinScenario("fuzz_smoke");
  const std::string one = RenderGolden(RunScenario(spec, nullptr, /*jobs=*/1));
  const std::string four = RenderGolden(RunScenario(spec, nullptr, /*jobs=*/4));
  EXPECT_EQ(one, four);
  EXPECT_NE(one.find("\"fuzz_violations\":0"), std::string::npos) << one;
}

}  // namespace
}  // namespace gs
