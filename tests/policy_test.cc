// Tests for the agent-side library (task table, runqueues), the Search
// policy's behaviours, and the policy factory.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/agent/agent_process.h"
#include "src/agent/sdk/runqueue.h"
#include "src/agent/task_table.h"
#include "src/policies/centralized_fifo.h"
#include "src/policies/factory.h"
#include "src/policies/search.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace gs {
namespace {

// --- TaskTable -----------------------------------------------------------------

Message Msg(MessageType type, int64_t tid, uint32_t tseq, bool runnable = false) {
  Message msg;
  msg.type = type;
  msg.tid = tid;
  msg.tseq = tseq;
  msg.runnable = runnable;
  static const CpuMask kAll = CpuMask::AllUpTo(CpuMask::kMaxCpus);
  msg.affinity = &kAll;
  return msg;
}

TEST(TaskTableTest, LifecycleTransitions) {
  TaskTable table;
  PolicyTask* task = nullptr;

  EXPECT_EQ(table.Apply(Msg(MessageType::kTaskNew, 7, 1, false), &task),
            TaskTable::Event::kNew);
  ASSERT_NE(task, nullptr);
  EXPECT_FALSE(task->runnable);

  EXPECT_EQ(table.Apply(Msg(MessageType::kTaskWakeup, 7, 2), &task),
            TaskTable::Event::kRunnable);
  EXPECT_TRUE(task->runnable);
  EXPECT_EQ(task->tseq, 2u);

  EXPECT_EQ(table.Apply(Msg(MessageType::kTaskBlocked, 7, 3), &task),
            TaskTable::Event::kBlocked);
  EXPECT_FALSE(task->runnable);

  EXPECT_EQ(table.Apply(Msg(MessageType::kTaskDead, 7, 4), &task), TaskTable::Event::kDead);
  table.Remove(7);
  EXPECT_EQ(table.Find(7), nullptr);
}

TEST(TaskTableTest, PreemptionClearsAssignment) {
  TaskTable table;
  PolicyTask* task = nullptr;
  table.Apply(Msg(MessageType::kTaskNew, 1, 1, true), &task);
  task->assigned_cpu = 5;
  Message preempt = Msg(MessageType::kTaskPreempted, 1, 2);
  preempt.cpu = 5;
  table.Apply(preempt, &task);
  EXPECT_EQ(task->assigned_cpu, -1);
  EXPECT_EQ(task->last_cpu, 5);
  EXPECT_TRUE(task->runnable);
}

TEST(TaskTableTest, UnknownAndCpuMessagesAreIgnored) {
  TaskTable table;
  PolicyTask* task = nullptr;
  EXPECT_EQ(table.Apply(Msg(MessageType::kTaskWakeup, 99, 1), &task),
            TaskTable::Event::kNone);
  Message tick;
  tick.type = MessageType::kTimerTick;
  tick.tid = 0;
  EXPECT_EQ(table.Apply(tick, &task), TaskTable::Event::kNone);
  EXPECT_EQ(task, nullptr);
}

TEST(TaskTableTest, AddRemoveClearAndSortedTids) {
  TaskTable table;
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.SortedTids().empty());
  for (int64_t tid : {9, 3, 12, 1}) {
    table.Add(tid);
  }
  EXPECT_EQ(table.size(), 4u);
  EXPECT_EQ(table.SortedTids(), (std::vector<int64_t>{1, 3, 9, 12}));
  PolicyTask* nine = table.Find(9);
  ASSERT_NE(nine, nullptr);
  EXPECT_EQ(nine->tid, 9);
  EXPECT_EQ(nine->affinity.Count(), CpuMask::kMaxCpus) << "a new entry may run anywhere";
  EXPECT_EQ(nine->home_cpu, -1);
  for (int64_t tid : {int64_t{0}, int64_t{-1}, int64_t{13}, int64_t{1000}}) {
    EXPECT_EQ(table.Find(tid), nullptr) << "tid " << tid;
  }

  table.Remove(3);
  table.Remove(3);    // already gone: no effect
  table.Remove(100);  // never tracked: no effect
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.Find(3), nullptr);
  EXPECT_EQ(table.SortedTids(), (std::vector<int64_t>{1, 9, 12}));

  PolicyTask* again = table.Add(9);  // re-adding replaces the entry
  EXPECT_NE(again, nine);
  EXPECT_EQ(table.Find(9), again);
  EXPECT_EQ(table.size(), 3u);

  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_TRUE(table.SortedTids().empty());
  EXPECT_EQ(table.Find(1), nullptr);
  table.Add(2);
  EXPECT_EQ(table.SortedTids(), (std::vector<int64_t>{2}));
}

// --- Runqueues ------------------------------------------------------------------------

TEST(FifoRunqueueTest, OrderAndRemove) {
  TaskTable table;
  PolicyTask* a = table.Add(1);
  PolicyTask* b = table.Add(2);
  PolicyTask* c = table.Add(3);
  FifoRunqueue rq;
  rq.Push(a);
  rq.Push(b);
  rq.PushFront(c);
  EXPECT_EQ(rq.size(), 3u);
  EXPECT_TRUE(rq.Remove(b));
  EXPECT_FALSE(rq.Remove(b));
  EXPECT_EQ(rq.Pop(), c);
  EXPECT_EQ(rq.Pop(), a);
  EXPECT_EQ(rq.Pop(), nullptr);
}

TEST(MinRunqueueTest, OrdersByKeyThenTid) {
  TaskTable table;
  PolicyTask* a = table.Add(10);
  PolicyTask* b = table.Add(11);
  PolicyTask* c = table.Add(12);
  MinRunqueue rq;
  rq.Push(a, 100);
  rq.Push(b, 50);
  rq.Push(c, 100);
  EXPECT_EQ(rq.PopMin(), b);
  EXPECT_EQ(rq.PopMin(), a) << "key tie broken by tid";
  EXPECT_TRUE(rq.Contains(c));
  EXPECT_TRUE(rq.Remove(c));
  EXPECT_TRUE(rq.empty());
}

// --- Search policy placement behaviour -------------------------------------------------

class SearchPolicyTest : public ::testing::Test {
 protected:
  void Build() {
    machine_ = std::make_unique<SimulationContext>(
        SimulationContext::Options{.topology = Topology::AmdRome256(),
                                   .cost = CostModel().WithCacheWarmth()});
    enclave_ = machine_->CreateEnclave(machine_->kernel().topology().AllCpus());
    SearchPolicy::Options options;
    options.global_cpu = 0;
    process_ = std::make_unique<AgentProcess>(&machine_->kernel(), machine_->ghost_class(),
                                              enclave_.get(),
                                              std::make_unique<SearchPolicy>(options));
    process_->Start();
  }

  Task* BurstyWorker(const std::string& name, Duration burst, Duration gap, int repeats) {
    Task* t = machine_->kernel().CreateTask(name);
    enclave_->AddTask(t);
    Kernel* kernel = &machine_->kernel();
    EventLoop* loop_ptr = &machine_->loop();
    auto remaining = std::make_shared<int>(repeats);
    auto loop = std::make_shared<std::function<void(Task*)>>();
    *loop = [kernel, loop_ptr, remaining, burst, gap, loop](Task* task) {
      if (--*remaining <= 0) {
        kernel->Exit(task);
        return;
      }
      kernel->Block(task);
      loop_ptr->ScheduleAfter(gap, [kernel, task, burst, loop] {
        kernel->StartBurst(task, burst, *loop);
        kernel->Wake(task);
      });
    };
    kernel->StartBurst(t, burst, *loop);
    kernel->Wake(t);
    return t;
  }

  std::unique_ptr<SimulationContext> machine_;
  std::unique_ptr<Enclave> enclave_;
  std::unique_ptr<AgentProcess> process_;
};

TEST_F(SearchPolicyTest, RepeatedWakesStayOnWarmCcx) {
  Build();
  Task* worker = BurstyWorker("w", Microseconds(200), Microseconds(100), 20);
  machine_->RunFor(Milliseconds(20));
  ASSERT_EQ(worker->state(), TaskState::kDead);
  // With an empty machine, every wake must land back on the same CCX.
  auto* policy = static_cast<SearchPolicy*>(process_->policy());
  EXPECT_GE(policy->scheduled(), 20u);
}

TEST_F(SearchPolicyTest, RespectsNumaAffinity) {
  Build();
  Task* pinned = machine_->kernel().CreateTask("pinned");
  enclave_->AddTask(pinned);
  machine_->kernel().SetAffinity(pinned, machine_->kernel().topology().NumaMask(1));
  machine_->kernel().StartBurst(pinned, Microseconds(500), [this](Task* t) {
    machine_->kernel().Exit(t);
  });
  machine_->kernel().Wake(pinned);
  machine_->RunFor(Milliseconds(5));
  EXPECT_EQ(pinned->state(), TaskState::kDead);
  EXPECT_EQ(machine_->kernel().topology().cpu(pinned->last_cpu()).numa, 1);
}

TEST_F(SearchPolicyTest, MinRuntimeOrderFavoursFreshThreads) {
  Build();
  // A "veteran" with lots of accumulated runtime and a fresh thread both
  // wake with only one available CPU slot: the fresh one goes first.
  Task* veteran = BurstyWorker("vet", Milliseconds(5), Microseconds(10), 3);
  machine_->RunFor(Milliseconds(6));  // veteran accumulates runtime
  // Occupy every CPU except one with CFS hogs so the policy has one slot.
  const int total = machine_->kernel().topology().num_cpus();
  for (int cpu = 1; cpu < total - 1; ++cpu) {
    Task* hog = SpawnHog(machine_->kernel(), "hog" + std::to_string(cpu));
    machine_->kernel().SetAffinity(hog, CpuMask::Single(cpu));
  }
  machine_->RunFor(Milliseconds(10));
  Task* fresh = BurstyWorker("fresh", Microseconds(100), Microseconds(10), 2);
  machine_->RunFor(Milliseconds(30));
  EXPECT_EQ(fresh->state(), TaskState::kDead) << "fresh thread should get the slot";
  (void)veteran;
}

// --- Policy factory -----------------------------------------------------------------------

TEST(ShinjukuFactoryTest, PoliciesCarryOptions) {
  PolicyEnv env;
  env.tier_of = [](int64_t tid) { return tid == 7 ? 1 : 0; };
  env.cookie_of = [](int64_t tid) { return tid; };
  PolicyConfig config;
  config.timeslice_us = 40;
  // The kind list drives both the scenario parser and the factory table, so
  // every kind but "cfs" must build, and land on the policy its name says.
  const std::map<std::string, std::string> policy_of = {
      {"centralized_fifo", "centralized-fifo"},
      {"shinjuku", "centralized-fifo"},
      {"shinjuku_shenango", "centralized-fifo"},
      {"snap", "centralized-fifo"},
      {"per_cpu_fifo", "per-cpu-fifo"},
      {"o1", "o1-mlq"},
      {"search", "search"},
      {"predictive_shinjuku", "predictive-shinjuku"},
      {"predictive_search", "predictive-search"},
      {"vm_core_sched", "vm-core-sched"},
      {"ab_test", "ab-test"}};
  for (const char* kind : kPolicyKinds) {
    if (std::string_view(kind) == "cfs") {
      continue;
    }
    config.kind = kind;
    std::unique_ptr<Policy> policy = MakePolicy(config, env);
    ASSERT_NE(policy, nullptr) << kind;
    EXPECT_EQ(policy->name(), policy_of.at(kind)) << kind;
  }

  // The paper's §4.2-4.3 policies are settings of the centralized model.
  const auto centralized = [&](const char* kind) {
    config.kind = kind;
    std::unique_ptr<Policy> policy = MakePolicy(config, env);
    auto* fifo = dynamic_cast<CentralizedFifoPolicy*>(policy.get());
    EXPECT_NE(fifo, nullptr) << kind;
    return fifo != nullptr ? fifo->options() : CentralizedFifoPolicy::Options();
  };
  const CentralizedFifoPolicy::Options shinjuku = centralized("shinjuku");
  EXPECT_EQ(shinjuku.preemption_timeslice, Microseconds(40));
  EXPECT_EQ(shinjuku.tier_of(7), 0) << "plain Shinjuku has no batch tier";
  const CentralizedFifoPolicy::Options shenango = centralized("shinjuku_shenango");
  EXPECT_EQ(shenango.preemption_timeslice, Microseconds(40));
  EXPECT_EQ(shenango.tier_of(7), 1);
  EXPECT_EQ(shenango.tier_of(8), 0);
  const CentralizedFifoPolicy::Options snap = centralized("snap");
  EXPECT_EQ(snap.preemption_timeslice, 0) << "Snap workers run to completion";
  EXPECT_EQ(snap.tier_of(7), 1);
}

}  // namespace
}  // namespace gs
