// Edge-case tests for the transaction latch (the ghOSt class's only per-CPU
// state) and commit validation interleavings.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/ghost/fastpath.h"
#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace gs {
namespace {

class LatchTest : public ::testing::Test {
 protected:
  void Build(int cores) {
    machine_ = std::make_unique<SimulationContext>(
        SimulationContext::Options{.topology = Topology::Make("t", 1, cores, 1, cores)});
    enclave_ = machine_->CreateEnclave(CpuMask::AllUpTo(cores));
  }

  Task* GhostTask_(const std::string& name, Duration burst) {
    Task* task = machine_->kernel().CreateTask(name);
    enclave_->AddTask(task);
    machine_->kernel().StartBurst(burst > 0 ? task : task, burst,
                                  [this](Task* t) { machine_->kernel().Exit(t); });
    return task;
  }

  TxnStatus CommitOne(int64_t tid, int cpu) {
    Transaction txn;
    txn.tid = tid;
    txn.target_cpu = cpu;
    Transaction* ptr = &txn;
    enclave_->TxnsCommit(std::span<Transaction*>(&ptr, 1), nullptr,
                         [](int) { return Duration{0}; });
    return txn.status;
  }

  std::unique_ptr<SimulationContext> machine_;
  std::unique_ptr<Enclave> enclave_;
};

TEST_F(LatchTest, TaskCannotBeLatchedOnTwoCpus) {
  Build(3);
  Task* task = GhostTask_("w", Microseconds(50));
  machine_->kernel().Wake(task);
  machine_->RunFor(Microseconds(1));
  EXPECT_EQ(CommitOne(task->tid(), 1), TxnStatus::kCommitted);
  // While the first commit's IPI is in flight, a second commit for the same
  // thread elsewhere must fail.
  EXPECT_EQ(CommitOne(task->tid(), 2), TxnStatus::kENotRunnable);
  machine_->RunFor(Milliseconds(1));
  EXPECT_EQ(task->state(), TaskState::kDead);
  EXPECT_EQ(task->last_cpu(), 1);
}

TEST_F(LatchTest, LatchSurvivesWhilePickDisabled) {
  Build(2);
  Task* task = GhostTask_("w", Microseconds(50));
  machine_->kernel().Wake(task);
  machine_->RunFor(Microseconds(1));
  ASSERT_EQ(CommitOne(task->tid(), 1), TxnStatus::kCommitted);
  EXPECT_TRUE(machine_->ghost_class()->HasLatch(1));
  // Before the IPI lands the latch is pending but not pickable; after, gone
  // (consumed by the pick).
  machine_->RunFor(Microseconds(10));
  EXPECT_FALSE(machine_->ghost_class()->HasLatch(1));
  EXPECT_EQ(task->state(), TaskState::kRunning);
}

TEST_F(LatchTest, RunningTaskCannotBeCommittedAgain) {
  Build(2);
  Task* task = GhostTask_("w", Milliseconds(5));
  machine_->kernel().Wake(task);
  machine_->RunFor(Microseconds(1));
  ASSERT_EQ(CommitOne(task->tid(), 1), TxnStatus::kCommitted);
  machine_->RunFor(Milliseconds(1));
  ASSERT_EQ(task->state(), TaskState::kRunning);
  EXPECT_EQ(CommitOne(task->tid(), 1), TxnStatus::kENotRunnable);
}

TEST_F(LatchTest, DeadTaskDefeatsPendingLatch) {
  Build(3);
  Task* a = GhostTask_("a", Microseconds(5));
  Task* b = GhostTask_("b", Microseconds(5));
  machine_->kernel().Wake(a);
  machine_->kernel().Wake(b);
  machine_->RunFor(Microseconds(1));
  // Run `a` on cpu 1 to completion.
  ASSERT_EQ(CommitOne(a->tid(), 1), TxnStatus::kCommitted);
  machine_->RunFor(Milliseconds(1));
  ASSERT_EQ(a->state(), TaskState::kDead);
  // A commit for the dead thread is invalid; the CPU stays usable for b.
  EXPECT_EQ(CommitOne(a->tid(), 1), TxnStatus::kEInvalid);
  EXPECT_EQ(CommitOne(b->tid(), 1), TxnStatus::kCommitted);
  machine_->RunFor(Milliseconds(1));
  EXPECT_EQ(b->state(), TaskState::kDead);
}

TEST_F(LatchTest, EnclaveDestroyClearsLatches) {
  Build(2);
  Task* task = GhostTask_("w", Microseconds(50));
  machine_->kernel().Wake(task);
  machine_->RunFor(Microseconds(1));
  ASSERT_EQ(CommitOne(task->tid(), 1), TxnStatus::kCommitted);
  ASSERT_TRUE(machine_->ghost_class()->HasLatch(1));
  enclave_->Destroy();
  EXPECT_FALSE(machine_->ghost_class()->HasLatch(1));
  // The thread finishes under CFS.
  machine_->RunFor(Milliseconds(2));
  EXPECT_EQ(task->state(), TaskState::kDead);
}

TEST_F(LatchTest, MixedGroupPartialFailureIsPerTxn) {
  // Without sync_group, failures are independent: one bad transaction in a
  // group doesn't poison the others (unlike synchronized groups).
  Build(4);
  Task* a = GhostTask_("a", Microseconds(5));
  Task* b = GhostTask_("b", Microseconds(5));  // never woken
  machine_->kernel().Wake(a);
  machine_->RunFor(Microseconds(1));
  Transaction ta;
  ta.tid = a->tid();
  ta.target_cpu = 1;
  Transaction tb;
  tb.tid = b->tid();
  tb.target_cpu = 2;
  std::vector<Transaction*> txns = {&ta, &tb};
  enclave_->TxnsCommit(txns, nullptr, [](int) { return Duration{0}; });
  EXPECT_EQ(ta.status, TxnStatus::kCommitted);
  EXPECT_EQ(tb.status, TxnStatus::kENotRunnable);
  machine_->RunFor(Milliseconds(1));
  EXPECT_EQ(a->state(), TaskState::kDead);
  EXPECT_EQ(b->state(), TaskState::kCreated);
}

TEST_F(LatchTest, SyncGroupRejectsDuplicateTargets) {
  // Malformed synchronized groups must fail cleanly, not crash: two members
  // naming the same CPU, or the same thread twice.
  Build(4);
  Task* a = GhostTask_("a", Microseconds(5));
  Task* b = GhostTask_("b", Microseconds(5));
  machine_->kernel().Wake(a);
  machine_->kernel().Wake(b);
  machine_->RunFor(Microseconds(1));

  Transaction t1;
  t1.tid = a->tid();
  t1.target_cpu = 1;
  t1.sync_group = 3;
  Transaction t2;
  t2.tid = b->tid();
  t2.target_cpu = 1;  // duplicate CPU
  t2.sync_group = 3;
  std::vector<Transaction*> txns = {&t1, &t2};
  enclave_->TxnsCommit(txns, nullptr, [](int) { return Duration{0}; });
  EXPECT_EQ(t1.status, TxnStatus::kEAborted);
  EXPECT_EQ(t2.status, TxnStatus::kETxnPending);

  Transaction t3;
  t3.tid = a->tid();
  t3.target_cpu = 1;
  t3.sync_group = 4;
  Transaction t4;
  t4.tid = a->tid();  // duplicate thread
  t4.target_cpu = 2;
  t4.sync_group = 4;
  txns = {&t3, &t4};
  enclave_->TxnsCommit(txns, nullptr, [](int) { return Duration{0}; });
  EXPECT_EQ(t3.status, TxnStatus::kEAborted);
  EXPECT_EQ(t4.status, TxnStatus::kENotRunnable);

  // A well-formed group on the same CPUs still commits afterwards.
  Transaction t5;
  t5.tid = a->tid();
  t5.target_cpu = 1;
  t5.sync_group = 5;
  Transaction t6;
  t6.tid = b->tid();
  t6.target_cpu = 2;
  t6.sync_group = 5;
  txns = {&t5, &t6};
  enclave_->TxnsCommit(txns, nullptr, [](int) { return Duration{0}; });
  EXPECT_EQ(t5.status, TxnStatus::kCommitted);
  EXPECT_EQ(t6.status, TxnStatus::kCommitted);
}

TEST_F(LatchTest, SyncGroupFailingMemberRollsBackLatchedSiblings) {
  // Regression for the partial-latch bug: members latch as they validate, so
  // when a later member fails, the already-latched siblings must be rolled
  // back — kEAborted, latches cleared, target CPUs untouched — not left to
  // run half a synchronized group.
  Build(4);
  Task* a = GhostTask_("a", Microseconds(50));
  Task* b = GhostTask_("b", Microseconds(50));  // never woken -> kENotRunnable
  machine_->kernel().Wake(a);
  machine_->RunFor(Microseconds(1));

  Transaction ta;
  ta.tid = a->tid();
  ta.target_cpu = 1;
  ta.sync_group = 9;
  Transaction tb;
  tb.tid = b->tid();
  tb.target_cpu = 2;
  tb.sync_group = 9;
  std::vector<Transaction*> txns = {&ta, &tb};
  enclave_->TxnsCommit(txns, nullptr, [](int) { return Duration{0}; });
  EXPECT_EQ(ta.status, TxnStatus::kEAborted);
  EXPECT_EQ(tb.status, TxnStatus::kENotRunnable);
  // The rolled-back sibling left no trace: no latch, and `a` never runs.
  EXPECT_FALSE(machine_->ghost_class()->HasLatch(1));
  machine_->RunFor(Milliseconds(1));
  EXPECT_EQ(a->state(), TaskState::kRunnable);
  EXPECT_EQ(a->total_runtime(), Duration{0});

  // The CPUs stay usable: a well-formed retry commits and runs.
  machine_->kernel().Wake(b);
  machine_->RunFor(Microseconds(1));
  ta.sync_group = 10;
  ta.status = TxnStatus::kPending;
  tb.sync_group = 10;
  tb.status = TxnStatus::kPending;
  enclave_->TxnsCommit(txns, nullptr, [](int) { return Duration{0}; });
  EXPECT_EQ(ta.status, TxnStatus::kCommitted);
  EXPECT_EQ(tb.status, TxnStatus::kCommitted);
  machine_->RunFor(Milliseconds(1));
  EXPECT_EQ(a->state(), TaskState::kDead);
  EXPECT_EQ(b->state(), TaskState::kDead);
}

TEST_F(LatchTest, SyncGroupRollbackSparesIdleMarkerSibling) {
  // An idle-marker member takes no latch, so a group abort must not deliver
  // its forced-idle side effect either: the CPU stays schedulable.
  Build(4);
  Task* b = GhostTask_("b", Microseconds(50));  // never woken -> group fails

  Transaction tidle;
  tidle.tid = 0;
  tidle.idle = true;
  tidle.target_cpu = 1;
  tidle.sync_group = 11;
  Transaction tb;
  tb.tid = b->tid();
  tb.target_cpu = 2;
  tb.sync_group = 11;
  std::vector<Transaction*> txns = {&tidle, &tb};
  enclave_->TxnsCommit(txns, nullptr, [](int) { return Duration{0}; });
  EXPECT_EQ(tidle.status, TxnStatus::kEAborted);
  EXPECT_EQ(tb.status, TxnStatus::kENotRunnable);
  EXPECT_FALSE(machine_->ghost_class()->forced_idle(1))
      << "aborted idle marker must not force the CPU idle";
}

TEST_F(LatchTest, SyncGroupRollbackRestoresForcedIdleMarker) {
  // Latching clears an existing forced-idle marker on the target CPU; a
  // rollback must put it back, or the abort silently un-idles a CPU that
  // core scheduling deliberately parked.
  Build(4);
  Task* a = GhostTask_("a", Microseconds(50));
  Task* b = GhostTask_("b", Microseconds(50));  // never woken
  machine_->kernel().Wake(a);
  machine_->RunFor(Microseconds(1));

  machine_->ghost_class()->SetForcedIdle(1, true);
  Transaction ta;
  ta.tid = a->tid();
  ta.target_cpu = 1;
  ta.sync_group = 12;
  Transaction tb;
  tb.tid = b->tid();
  tb.target_cpu = 2;
  tb.sync_group = 12;
  std::vector<Transaction*> txns = {&ta, &tb};
  enclave_->TxnsCommit(txns, nullptr, [](int) { return Duration{0}; });
  EXPECT_EQ(ta.status, TxnStatus::kEAborted);
  EXPECT_TRUE(machine_->ghost_class()->forced_idle(1))
      << "rollback must restore the forced-idle marker the latch displaced";
}

TEST_F(LatchTest, FastpathSkipsTidLatchedByRemoteCommit) {
  // Regression for the stale fast-path pick: an agent publishes a tid to the
  // idle ring, then commits the same thread to another CPU. When the idle
  // CPU later pops the stale entry, the pick must re-validate and skip it —
  // otherwise the thread is double-placed on two CPUs at once.
  Build(3);
  std::shared_ptr<RingFastPath> ring = RingFastPath::Global(3);
  RingFastPath* ring_ptr = ring.get();
  enclave_->InstallFastPath(std::move(ring));

  Task* task = GhostTask_("w", Microseconds(200));
  machine_->kernel().Wake(task);
  machine_->RunFor(Microseconds(1));
  ASSERT_TRUE(ring_ptr->Publish(0, task->tid()));

  // Remote commit wins the race: the thread is latched on CPU 2.
  ASSERT_EQ(CommitOne(task->tid(), 2), TxnStatus::kCommitted);
  // Now CPU 1 goes looking for work and pops the stale published tid.
  machine_->kernel().ReschedCpu(1);
  machine_->RunFor(Milliseconds(1));
  EXPECT_EQ(task->state(), TaskState::kDead);
  EXPECT_EQ(task->last_cpu(), 2) << "stale fast-path entry must be skipped";
  EXPECT_EQ(task->total_runtime(), Microseconds(200));
}

TEST_F(LatchTest, FastpathSkipsTidMidSwitchOntoAnotherCpu) {
  // Same race, later window: the latch was already consumed by CPU 2's pick
  // and the thread is mid-context-switch (still kRunnable, inbound_cpu == 2).
  // The fast-path pick on CPU 1 must still skip it, and a remote commit in
  // that window must fail kENotRunnable.
  Build(3);
  std::shared_ptr<RingFastPath> ring = RingFastPath::Global(3);
  RingFastPath* ring_ptr = ring.get();
  enclave_->InstallFastPath(std::move(ring));

  Task* task = GhostTask_("w", Microseconds(200));
  machine_->kernel().Wake(task);
  machine_->RunFor(Microseconds(1));
  ASSERT_EQ(CommitOne(task->tid(), 2), TxnStatus::kCommitted);
  // Step until the latch is consumed but the switch hasn't finished: the
  // thread is still kRunnable with a context switch inbound on CPU 2.
  while (machine_->ghost_class()->HasLatch(2) ||
         task->state() != TaskState::kRunnable) {
    ASSERT_LT(machine_->now(), Milliseconds(1)) << "never reached mid-switch";
    machine_->RunFor(Nanoseconds(100));
    if (task->state() == TaskState::kRunning) {
      GTEST_SKIP() << "switch window too small to observe";
    }
  }
  ASSERT_EQ(task->inbound_cpu(), 2);
  EXPECT_EQ(CommitOne(task->tid(), 1), TxnStatus::kENotRunnable);
  ASSERT_TRUE(ring_ptr->Publish(0, task->tid()));
  machine_->kernel().ReschedCpu(1);
  machine_->RunFor(Milliseconds(1));
  EXPECT_EQ(task->state(), TaskState::kDead);
  EXPECT_EQ(task->last_cpu(), 2);
  EXPECT_EQ(task->total_runtime(), Microseconds(200));
}

}  // namespace
}  // namespace gs
