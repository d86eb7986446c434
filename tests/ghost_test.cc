// Tests for the ghOSt core: messages, sequence numbers, transactions,
// watchdog fallback, queue association, forced idle, fast path.
#include <deque>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "src/ghost/message_queue.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace gs {
namespace {

Topology SmallTopo(int cores, int smt = 1) {
  return Topology::Make("test", 1, cores, smt, cores);
}

class GhostTest : public ::testing::Test {
 protected:
  void Build(int cores, Enclave::Config config = Enclave::Config()) {
    machine_ = std::make_unique<SimulationContext>(
        SimulationContext::Options{.topology = SmallTopo(cores)});
    enclave_ = machine_->CreateEnclave(CpuMask::AllUpTo(cores), config);
  }

  // Creates a one-shot ghOSt thread (not yet woken).
  Task* GhostTask_(const std::string& name, Duration burst) {
    Task* task = machine_->kernel().CreateTask(name);
    enclave_->AddTask(task);
    machine_->kernel().StartBurst(task, burst,
                                  [this](Task* t) { machine_->kernel().Exit(t); });
    return task;
  }

  // Directly commits (tid -> cpu) as if from an agent, with no agent context.
  TxnStatus CommitOne(int64_t tid, int cpu, std::optional<uint32_t> tseq = std::nullopt) {
    Transaction txn;
    txn.tid = tid;
    txn.target_cpu = cpu;
    txn.expected_tseq = tseq;
    Transaction* ptr = &txn;
    enclave_->TxnsCommit(std::span<Transaction*>(&ptr, 1), nullptr,
                         [](int) { return Duration{0}; });
    return txn.status;
  }

  std::vector<Message> DrainDefault() {
    std::vector<Message> out;
    while (auto msg = enclave_->PopMessage(enclave_->default_queue())) {
      out.push_back(*msg);
    }
    return out;
  }

  std::unique_ptr<SimulationContext> machine_;
  std::unique_ptr<Enclave> enclave_;
};

TEST_F(GhostTest, AddTaskPostsThreadCreated) {
  Build(2);
  Task* task = GhostTask_("w", Microseconds(10));
  auto msgs = DrainDefault();
  ASSERT_EQ(msgs.size(), 1u);
  EXPECT_EQ(msgs[0].type, MessageType::kTaskNew);
  EXPECT_EQ(msgs[0].tid, task->tid());
  EXPECT_EQ(msgs[0].tseq, 1u);
  EXPECT_FALSE(msgs[0].runnable) << "created but not yet woken";
}

TEST_F(GhostTest, WakeupMessageAndTseqMonotonic) {
  Build(2);
  Task* task = GhostTask_("w", Microseconds(10));
  machine_->kernel().Wake(task);
  auto msgs = DrainDefault();
  ASSERT_EQ(msgs.size(), 2u);
  EXPECT_EQ(msgs[1].type, MessageType::kTaskWakeup);
  EXPECT_GT(msgs[1].tseq, msgs[0].tseq);
  const TaskStatusWord* status = enclave_->task_status(task->tid());
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->tseq, msgs[1].tseq);
  EXPECT_TRUE(status->runnable);
}

TEST_F(GhostTest, CommitRunsThreadAndPostsDead) {
  Build(2);
  Task* task = GhostTask_("w", Microseconds(10));
  machine_->kernel().Wake(task);
  machine_->RunFor(Microseconds(1));
  EXPECT_EQ(CommitOne(task->tid(), 1), TxnStatus::kCommitted);
  machine_->RunFor(Milliseconds(1));
  EXPECT_EQ(task->state(), TaskState::kDead);
  EXPECT_EQ(task->total_runtime(), Microseconds(10));
  auto msgs = DrainDefault();
  ASSERT_GE(msgs.size(), 3u);
  EXPECT_EQ(msgs.back().type, MessageType::kTaskDead);
}

TEST_F(GhostTest, StaleTseqFailsWithEstale) {
  Build(2);
  Task* task = GhostTask_("w", Microseconds(10));
  machine_->kernel().Wake(task);  // bumps tseq to 2
  machine_->RunFor(Microseconds(1));
  EXPECT_EQ(CommitOne(task->tid(), 1, /*tseq=*/1), TxnStatus::kEStale);
  EXPECT_EQ(CommitOne(task->tid(), 1, /*tseq=*/2), TxnStatus::kCommitted);
}

TEST_F(GhostTest, BlockedThreadNotRunnable) {
  Build(2);
  Task* task = machine_->kernel().CreateTask("w");
  enclave_->AddTask(task);
  EXPECT_EQ(CommitOne(task->tid(), 1), TxnStatus::kENotRunnable);
}

TEST_F(GhostTest, UnknownTidInvalid) {
  Build(2);
  EXPECT_EQ(CommitOne(4242, 1), TxnStatus::kEInvalid);
}

TEST_F(GhostTest, CpuOutsideEnclaveInvalid) {
  machine_ = std::make_unique<SimulationContext>(
      SimulationContext::Options{.topology = SmallTopo(4)});
  enclave_ = machine_->CreateEnclave(CpuMask::Single(0) | CpuMask::Single(1));
  Task* task = machine_->kernel().CreateTask("w");
  enclave_->AddTask(task);
  machine_->kernel().StartBurst(task, Microseconds(5),
                                [this](Task* t) { machine_->kernel().Exit(t); });
  machine_->kernel().Wake(task);
  machine_->RunFor(Microseconds(1));
  EXPECT_EQ(CommitOne(task->tid(), 3), TxnStatus::kEInvalid);
}

TEST_F(GhostTest, CfsOccupiedCpuBusy) {
  Build(2);
  SpawnHog(machine_->kernel(), "cfs-hog", nullptr, Milliseconds(10));
  machine_->RunFor(Milliseconds(1));
  // The hog landed on some CPU; committing there must fail.
  const int busy_cpu = machine_->kernel().CpuIdle(0) ? 1 : 0;
  Task* task = GhostTask_("w", Microseconds(10));
  machine_->kernel().Wake(task);
  machine_->RunFor(Microseconds(1));
  EXPECT_EQ(CommitOne(task->tid(), busy_cpu), TxnStatus::kECpuBusy);
}

TEST_F(GhostTest, DoubleCommitSameCpuTxnPending) {
  Build(2);
  Task* a = GhostTask_("a", Microseconds(10));
  Task* b = GhostTask_("b", Microseconds(10));
  machine_->kernel().Wake(a);
  machine_->kernel().Wake(b);
  machine_->RunFor(Microseconds(1));
  EXPECT_EQ(CommitOne(a->tid(), 1), TxnStatus::kCommitted);
  EXPECT_EQ(CommitOne(b->tid(), 1), TxnStatus::kETxnPending);
}

TEST_F(GhostTest, CommitPreemptsRunningGhostThread) {
  Build(2);
  Task* a = GhostTask_("a", Milliseconds(10));
  Task* b = GhostTask_("b", Microseconds(10));
  machine_->kernel().Wake(a);
  machine_->kernel().Wake(b);
  machine_->RunFor(Microseconds(1));
  ASSERT_EQ(CommitOne(a->tid(), 1), TxnStatus::kCommitted);
  machine_->RunFor(Microseconds(50));
  ASSERT_EQ(a->state(), TaskState::kRunning);
  // §3.3: a transaction for a CPU already running a ghOSt thread preempts it.
  EXPECT_EQ(CommitOne(b->tid(), 1), TxnStatus::kCommitted);
  machine_->RunFor(Milliseconds(1));
  EXPECT_EQ(b->state(), TaskState::kDead);
  EXPECT_EQ(a->state(), TaskState::kRunnable) << "preempted, awaiting re-schedule";
  bool saw_preempt = false;
  for (const Message& msg : DrainDefault()) {
    if (msg.type == MessageType::kTaskPreempted && msg.tid == a->tid()) {
      saw_preempt = true;
    }
  }
  EXPECT_TRUE(saw_preempt);
}

TEST_F(GhostTest, SyncGroupAllOrNothing) {
  Build(4);
  Task* a = GhostTask_("a", Microseconds(10));
  Task* b = GhostTask_("b", Microseconds(10));
  machine_->kernel().Wake(a);  // b stays blocked -> its txn must fail
  machine_->RunFor(Microseconds(1));

  Transaction ta;
  ta.tid = a->tid();
  ta.target_cpu = 1;
  ta.sync_group = 7;
  Transaction tb;
  tb.tid = b->tid();
  tb.target_cpu = 2;
  tb.sync_group = 7;
  std::vector<Transaction*> txns = {&ta, &tb};
  enclave_->TxnsCommit(txns, nullptr, [](int) { return Duration{0}; });
  EXPECT_EQ(ta.status, TxnStatus::kEAborted) << "sibling failed, so the group aborts";
  EXPECT_EQ(tb.status, TxnStatus::kENotRunnable);

  // Wake b: now the group commits atomically.
  machine_->kernel().Wake(b);
  machine_->RunFor(Microseconds(1));
  ta.status = TxnStatus::kPending;
  tb.status = TxnStatus::kPending;
  enclave_->TxnsCommit(txns, nullptr, [](int) { return Duration{0}; });
  EXPECT_EQ(ta.status, TxnStatus::kCommitted);
  EXPECT_EQ(tb.status, TxnStatus::kCommitted);
  machine_->RunFor(Milliseconds(1));
  EXPECT_EQ(a->state(), TaskState::kDead);
  EXPECT_EQ(b->state(), TaskState::kDead);
}

TEST_F(GhostTest, IdleTransactionForcesCpuIdle) {
  Build(2);
  Task* a = GhostTask_("a", Microseconds(100));
  machine_->kernel().Wake(a);
  machine_->RunFor(Microseconds(1));

  Transaction idle;
  idle.target_cpu = 1;
  idle.idle = true;
  Transaction* ptr = &idle;
  enclave_->TxnsCommit(std::span<Transaction*>(&ptr, 1), nullptr,
                       [](int) { return Duration{0}; });
  EXPECT_EQ(idle.status, TxnStatus::kCommitted);
  machine_->RunFor(Microseconds(10));
  EXPECT_TRUE(machine_->ghost_class()->forced_idle(1));
  // A ghOSt thread cannot land there now...
  EXPECT_EQ(CommitOne(a->tid(), 1), TxnStatus::kCommitted);
  // ... wait: a new commit clears forced idle (next latch wins).
  machine_->RunFor(Milliseconds(1));
  EXPECT_FALSE(machine_->ghost_class()->forced_idle(1));
  EXPECT_EQ(a->state(), TaskState::kDead);
}

TEST_F(GhostTest, AffinityChangeDefeatsInFlightCommit) {
  Build(2);
  Task* a = GhostTask_("a", Microseconds(10));
  machine_->kernel().Wake(a);
  machine_->RunFor(Microseconds(1));
  ASSERT_EQ(CommitOne(a->tid(), 1), TxnStatus::kCommitted);
  // Before the latch is picked (IPI in flight), forbid CPU 1.
  machine_->kernel().SetAffinity(a, CpuMask::Single(0));
  machine_->RunFor(Milliseconds(1));
  // §3.3's scenario: the thread must NOT have run on CPU 1.
  EXPECT_NE(a->state(), TaskState::kDead);
  EXPECT_NE(a->last_cpu(), 1);
}

TEST_F(GhostTest, AssociateQueueFailsWithPendingMessages) {
  Build(2);
  Task* task = GhostTask_("w", Microseconds(10));
  MessageQueue* other = enclave_->CreateQueue();
  // The THREAD_CREATED message is still undrained.
  EXPECT_FALSE(enclave_->AssociateQueue(task->tid(), other));
  DrainDefault();
  EXPECT_TRUE(enclave_->AssociateQueue(task->tid(), other));
  // Subsequent messages go to the new queue.
  machine_->kernel().Wake(task);
  EXPECT_EQ(DrainDefault().size(), 0u);
  EXPECT_EQ(other->size(), 1u);
}

TEST_F(GhostTest, WatchdogDestroysEnclaveAndFallsBackToCfs) {
  Enclave::Config config;
  config.watchdog_timeout = Milliseconds(20);
  config.watchdog_period = Milliseconds(5);
  Build(2, config);
  Task* task = GhostTask_("w", Microseconds(10));
  machine_->kernel().Wake(task);
  // No agent ever schedules it; the watchdog must destroy the enclave and
  // CFS must then run the thread to completion.
  machine_->RunFor(Milliseconds(100));
  EXPECT_TRUE(enclave_->destroyed());
  EXPECT_EQ(task->state(), TaskState::kDead);
  EXPECT_EQ(task->sched_class(), machine_->kernel().default_class());
}

TEST_F(GhostTest, DestroyMovesRunningThreadsToCfs) {
  Build(2);
  Task* task = GhostTask_("w", Milliseconds(50));
  machine_->kernel().Wake(task);
  machine_->RunFor(Microseconds(1));
  ASSERT_EQ(CommitOne(task->tid(), 1), TxnStatus::kCommitted);
  machine_->RunFor(Milliseconds(1));
  ASSERT_EQ(task->state(), TaskState::kRunning);
  enclave_->Destroy();
  machine_->RunFor(Milliseconds(100));
  EXPECT_EQ(task->state(), TaskState::kDead);
  EXPECT_EQ(task->total_runtime(), Milliseconds(50));
}

TEST_F(GhostTest, FastPathSchedulesPublishedThread) {
  Build(2);
  auto fastpath = RingFastPath::Global(2);
  RingFastPath* fp = fastpath.get();
  enclave_->InstallFastPath(std::move(fastpath));
  Task* task = GhostTask_("w", Microseconds(10));
  machine_->kernel().Wake(task);
  machine_->RunFor(Microseconds(1));
  // Agent-side publish; an idle CPU's pick-next consults the ring.
  EXPECT_TRUE(fp->Publish(0, task->tid()));
  machine_->kernel().ReschedCpu(1);
  machine_->RunFor(Milliseconds(1));
  EXPECT_EQ(task->state(), TaskState::kDead);
  EXPECT_EQ(machine_->ghost_class()->fastpath_picks(), 1u);
}

TEST_F(GhostTest, FastPathSkipsStaleEntries) {
  Build(2);
  auto fastpath = RingFastPath::Global(2);
  RingFastPath* fp = fastpath.get();
  enclave_->InstallFastPath(std::move(fastpath));
  Task* blocked = GhostTask_("blocked", Microseconds(10));  // never woken
  Task* ok = GhostTask_("ok", Microseconds(10));
  machine_->kernel().Wake(ok);
  machine_->RunFor(Microseconds(1));
  EXPECT_TRUE(fp->Publish(0, blocked->tid()));  // stale: not runnable
  EXPECT_TRUE(fp->Publish(0, 31337));           // stale: no such thread
  EXPECT_TRUE(fp->Publish(0, ok->tid()));
  machine_->kernel().ReschedCpu(1);
  machine_->RunFor(Milliseconds(1));
  EXPECT_EQ(ok->state(), TaskState::kDead);
  EXPECT_EQ(blocked->state(), TaskState::kCreated);
}

TEST_F(GhostTest, TaskDumpReflectsState) {
  Build(2);
  Task* runnable = GhostTask_("r", Microseconds(10));
  Task* blocked = GhostTask_("b", Microseconds(10));
  machine_->kernel().Wake(runnable);
  machine_->RunFor(Microseconds(1));
  const auto dump = enclave_->TaskDump();
  ASSERT_EQ(dump.size(), 2u);
  for (const auto& info : dump) {
    if (info.tid == runnable->tid()) {
      EXPECT_TRUE(info.runnable);
    } else {
      EXPECT_EQ(info.tid, blocked->tid());
      EXPECT_FALSE(info.runnable);
    }
  }
}

TEST_F(GhostTest, AffinityMessagesDeliverTheMaskOfTheirPostInOrder) {
  Build(4);
  Task* task = GhostTask_("w", Microseconds(10));
  Task* other = GhostTask_("v", Microseconds(10));
  CpuMask first = CpuMask::Single(1);
  CpuMask second = CpuMask::Single(2);
  second.Set(3);
  // Two sched_setaffinity calls before one drain: each message keeps the
  // mask of its own post, not the task's current one.
  machine_->kernel().SetAffinity(task, first);
  machine_->kernel().SetAffinity(task, second);
  machine_->kernel().SetAffinity(other, first);
  machine_->kernel().Wake(task);
  const std::vector<Message> msgs = DrainDefault();
  ASSERT_EQ(msgs.size(), 6u);
  EXPECT_EQ(msgs[0].type, MessageType::kTaskNew);
  EXPECT_EQ(msgs[1].type, MessageType::kTaskNew);
  ASSERT_NE(msgs[0].affinity, nullptr);
  EXPECT_EQ(msgs[0].affinity->Count(), CpuMask::kMaxCpus);
  EXPECT_EQ(msgs[0].affinity, msgs[1].affinity) << "equal masks are interned once";
  for (int i = 2; i < 5; ++i) {
    EXPECT_EQ(msgs[i].type, MessageType::kTaskAffinity);
    ASSERT_NE(msgs[i].affinity, nullptr);
  }
  EXPECT_EQ(msgs[2].tid, task->tid());
  EXPECT_EQ(*msgs[2].affinity, first);
  EXPECT_EQ(msgs[3].tid, task->tid());
  EXPECT_EQ(*msgs[3].affinity, second);
  EXPECT_EQ(msgs[4].tid, other->tid());
  EXPECT_EQ(msgs[4].affinity, msgs[2].affinity) << "equal masks are interned once";
  EXPECT_EQ(enclave_->InternMask(second), msgs[3].affinity);
  EXPECT_EQ(msgs[5].type, MessageType::kTaskWakeup);
  EXPECT_EQ(msgs[5].affinity, nullptr) << "only new-thread and affinity messages carry one";
}

TEST(EnclaveFindTest, AnswersOnlyForThreadsThisEnclaveManages) {
  SimulationContext machine({.topology = SmallTopo(4)});
  Kernel& kernel = machine.kernel();
  CpuMask a_cpus = CpuMask::Single(0);
  a_cpus.Set(1);
  CpuMask b_cpus = CpuMask::Single(2);
  b_cpus.Set(3);
  std::unique_ptr<Enclave> a = machine.CreateEnclave(a_cpus);
  std::unique_ptr<Enclave> b = machine.CreateEnclave(b_cpus);

  Task* mine = kernel.CreateTask("mine");
  a->AddTask(mine);
  Task* theirs = kernel.CreateTask("theirs");
  b->AddTask(theirs);
  Task* departed = kernel.CreateTask("departed");
  a->AddTask(departed);
  a->RemoveTask(departed);
  Task* dead = kernel.CreateTask("dead");
  a->AddTask(dead);
  kernel.StartBurst(dead, Microseconds(1), [&kernel](Task* t) { kernel.Exit(t); });
  kernel.Wake(dead);
  machine.RunFor(Microseconds(1));
  Transaction txn;
  txn.tid = dead->tid();
  txn.target_cpu = 1;
  Transaction* ptr = &txn;
  a->TxnsCommit(std::span<Transaction*>(&ptr, 1), nullptr, [](int) { return Duration{0}; });
  ASSERT_EQ(txn.status, TxnStatus::kCommitted);
  machine.RunFor(Milliseconds(1));
  ASSERT_EQ(dead->state(), TaskState::kDead);

  ASSERT_NE(a->Find(mine->tid()), nullptr);
  EXPECT_EQ(a->Find(mine->tid())->task, mine);
  EXPECT_EQ(kernel.TaskByTid(mine->tid()), mine);
  const auto past_last = static_cast<int64_t>(kernel.tasks().size()) + 1;
  for (int64_t tid : {int64_t{0}, int64_t{-1}, std::numeric_limits<int64_t>::min(), past_last,
                      departed->tid(), dead->tid(), theirs->tid()}) {
    EXPECT_EQ(a->Find(tid), nullptr) << "tid " << tid;
  }
  EXPECT_EQ(kernel.TaskByTid(0), nullptr);
  EXPECT_EQ(kernel.TaskByTid(past_last), nullptr);
  ASSERT_NE(b->Find(theirs->tid()), nullptr);
  EXPECT_EQ(b->Find(mine->tid()), nullptr);
  EXPECT_EQ(a->num_tasks(), 1);
}

TEST_F(GhostTest, TimerTickMessagesWhileGhostThreadRuns) {
  Build(2);
  Task* task = GhostTask_("w", Milliseconds(10));
  machine_->kernel().Wake(task);
  machine_->RunFor(Microseconds(1));
  ASSERT_EQ(CommitOne(task->tid(), 1), TxnStatus::kCommitted);
  machine_->RunFor(Milliseconds(5));
  int ticks = 0;
  for (const Message& msg : DrainDefault()) {
    if (msg.type == MessageType::kTimerTick && msg.cpu == 1) {
      ++ticks;
    }
  }
  EXPECT_GE(ticks, 3) << "1 ms ticks while a ghOSt thread runs";
  EXPECT_LE(ticks, 6);
}

// ---- MessageQueue storage ----------------------------------------------------

// The parameter is the queue's logical capacity: the tiny queues of the
// overflow and seqnum tests, and the default.
class MessageQueueStorageTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MessageQueueStorageTest, KeepsFifoAcrossWrappedGrowthAndDropsAtCapacity) {
  const size_t capacity = GetParam();
  MessageQueue queue(/*id=*/0, capacity);
  std::deque<int64_t> expected;
  int64_t next_tid = 1;
  auto push = [&] {
    Message msg;
    msg.tid = next_tid++;
    const bool fits = expected.size() < capacity;
    EXPECT_EQ(queue.Push(msg), fits) << "depth " << expected.size();
    if (fits) {
      expected.push_back(msg.tid);
    }
  };
  auto pop = [&] {
    const std::optional<Message> msg = queue.Pop();
    ASSERT_EQ(msg.has_value(), !expected.empty());
    if (msg.has_value()) {
      EXPECT_EQ(msg->tid, expected.front());
      expected.pop_front();
    }
  };

  // Start the live window a few slots into the storage; then every round
  // pushes two and pops one, so the window creeps forward as it grows and
  // each time the storage grows, the window it copies wraps past its end.
  for (int i = 0; i < 3; ++i) {
    push();
    pop();
  }
  for (;;) {
    push();
    push();
    ASSERT_EQ(queue.size(), expected.size());
    if (expected.size() == capacity) {
      break;
    }
    pop();
  }
  push();  // one past the capacity: dropped
  EXPECT_EQ(queue.size(), capacity);

  // Drain, then refill to the capacity from the new head.
  while (!expected.empty()) {
    pop();
  }
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.Pop().has_value());
  for (size_t i = 0; i <= capacity; ++i) {
    push();
  }
  EXPECT_EQ(queue.size(), capacity);
  while (!queue.empty()) {
    pop();
  }
  EXPECT_TRUE(expected.empty());
}

INSTANTIATE_TEST_SUITE_P(Capacities, MessageQueueStorageTest,
                         ::testing::Values(size_t{1}, size_t{2}, size_t{4},
                                           kDefaultQueueCapacity));

}  // namespace
}  // namespace gs
