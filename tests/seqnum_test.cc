// Sequence-number semantics tests (§3.1-§3.3): Tseq/Aseq monotonicity,
// status-word consistency, and the exact staleness protocols of the per-CPU
// and centralized models.
#include <gtest/gtest.h>

#include "src/sim/simulation.h"
#include "tests/test_util.h"

namespace gs {
namespace {

class SeqTest : public ::testing::Test {
 protected:
  void Build(int cores) {
    machine_ = std::make_unique<SimulationContext>(
        SimulationContext::Options{.topology = Topology::Make("t", 1, cores, 1, cores)});
    enclave_ = machine_->CreateEnclave(CpuMask::AllUpTo(cores));
  }

  std::unique_ptr<SimulationContext> machine_;
  std::unique_ptr<Enclave> enclave_;
};

TEST_F(SeqTest, TseqIncrementsPerMessageAndMatchesStatusWord) {
  Build(2);
  Task* task = machine_->kernel().CreateTask("w");
  enclave_->AddTask(task);  // msg 1: THREAD_CREATED
  const TaskStatusWord* status = enclave_->task_status(task->tid());
  ASSERT_NE(status, nullptr);
  EXPECT_EQ(status->tseq, 1u);

  machine_->kernel().StartBurst(task, Microseconds(10),
                                [this](Task* t) { machine_->kernel().Block(t); });
  machine_->kernel().Wake(task);  // msg 2: WAKEUP
  EXPECT_EQ(status->tseq, 2u);
  machine_->RunFor(Milliseconds(1));
  // No agent scheduled it: still just 2 messages.
  EXPECT_EQ(status->tseq, 2u);

  // Every queued message carries the Tseq it was posted with, in order.
  uint32_t prev = 0;
  while (auto msg = enclave_->PopMessage(enclave_->default_queue())) {
    if (msg->tid == task->tid()) {
      EXPECT_EQ(msg->tseq, prev + 1);
      prev = msg->tseq;
    }
  }
  EXPECT_EQ(prev, 2u);
}

TEST_F(SeqTest, AseqCountsMessagesForConfiguredAgent) {
  Build(2);
  // Fake agent thread registered for CPU 1.
  Task* agent = machine_->kernel().CreateTask("agent", machine_->agent_class());
  enclave_->RegisterAgentTask(1, agent);
  enclave_->ConfigQueueWakeup(enclave_->default_queue(), agent);
  EXPECT_EQ(enclave_->agent_status(agent).aseq, 0u);

  Task* task = machine_->kernel().CreateTask("w");
  enclave_->AddTask(task);  // +1
  machine_->kernel().StartBurst(task, Microseconds(10),
                                [this](Task* t) { machine_->kernel().Exit(t); });
  machine_->kernel().Wake(task);  // +1
  EXPECT_EQ(enclave_->agent_status(agent).aseq, 2u);
}

TEST_F(SeqTest, StaleAseqFailsCommit) {
  Build(2);
  Task* agent = machine_->kernel().CreateTask("agent", machine_->agent_class());
  enclave_->RegisterAgentTask(1, agent);
  enclave_->ConfigQueueWakeup(enclave_->default_queue(), agent);

  Task* task = machine_->kernel().CreateTask("w");
  enclave_->AddTask(task);
  machine_->kernel().StartBurst(task, Microseconds(10),
                                [this](Task* t) { machine_->kernel().Exit(t); });
  machine_->kernel().Wake(task);
  machine_->RunFor(Microseconds(1));
  const uint32_t aseq = enclave_->agent_status(agent).aseq;

  // The §3.2 protocol: a transaction tagged with an older Aseq than the
  // current one must fail with ESTALE (a message arrived the agent has not
  // seen).
  Transaction stale;
  stale.tid = task->tid();
  stale.target_cpu = 0;
  stale.expected_aseq = aseq - 1;
  Transaction* ptr = &stale;
  enclave_->TxnsCommit(std::span<Transaction*>(&ptr, 1), agent,
                       [](int) { return Duration{0}; });
  EXPECT_EQ(stale.status, TxnStatus::kEStale);

  Transaction fresh;
  fresh.tid = task->tid();
  fresh.target_cpu = 0;
  fresh.expected_aseq = aseq;
  ptr = &fresh;
  enclave_->TxnsCommit(std::span<Transaction*>(&ptr, 1), agent,
                       [](int) { return Duration{0}; });
  EXPECT_EQ(fresh.status, TxnStatus::kCommitted);
}

TEST_F(SeqTest, TseqStalenessScenarioFromSection33) {
  // The paper's exact example: thread T posts WAKEUP; the agent decides to
  // run T on CPU f; meanwhile sched_setaffinity() posts THREAD_AFFINITY
  // forbidding CPU f. The commit tagged with the pre-affinity Tseq must fail.
  Build(3);
  Task* task = machine_->kernel().CreateTask("T");
  enclave_->AddTask(task);
  machine_->kernel().StartBurst(task, Microseconds(10),
                                [this](Task* t) { machine_->kernel().Exit(t); });
  machine_->kernel().Wake(task);
  const uint32_t tseq_at_decision = enclave_->task_status(task->tid())->tseq;

  // Concurrent affinity change (bumps Tseq, forbids CPU 2).
  machine_->kernel().SetAffinity(task, CpuMask::Single(1));

  Transaction txn;
  txn.tid = task->tid();
  txn.target_cpu = 2;
  txn.expected_tseq = tseq_at_decision;
  Transaction* ptr = &txn;
  enclave_->TxnsCommit(std::span<Transaction*>(&ptr, 1), nullptr,
                       [](int) { return Duration{0}; });
  EXPECT_EQ(txn.status, TxnStatus::kEStale)
      << "the agent's view was stale; the commit must not land";
  EXPECT_NE(task->last_cpu(), 2);
}

TEST_F(SeqTest, AgentWakeupOnQueueConfigOnly) {
  Build(2);
  Task* agent = machine_->kernel().CreateTask("agent", machine_->agent_class());
  enclave_->RegisterAgentTask(1, agent);
  // Agent blocked, queue NOT configured for wakeup: a message must not wake it.
  agent->set_state(TaskState::kBlocked);
  Task* task = machine_->kernel().CreateTask("w");
  enclave_->AddTask(task);
  machine_->RunFor(Milliseconds(1));
  EXPECT_EQ(agent->state(), TaskState::kBlocked);

  // Now configure the wakeup and post another message.
  enclave_->ConfigQueueWakeup(enclave_->default_queue(), agent);
  machine_->kernel().StartBurst(task, Microseconds(10),
                                [this](Task* t) { machine_->kernel().Exit(t); });
  machine_->kernel().Wake(task);
  machine_->RunFor(Milliseconds(1));
  EXPECT_NE(agent->state(), TaskState::kBlocked) << "queue wakeup fired";
}

TEST_F(SeqTest, OverflowedMessageStillAdvancesAseq) {
  // Regression for the silent-overflow staleness hole: when the queue is full
  // the message is dropped, but the Aseq must advance anyway — the queue no
  // longer reflects the world, so an in-flight commit built on the pre-drop
  // view has to fail kEStale instead of acting on a stale task set.
  Build(2);
  Task* agent = machine_->kernel().CreateTask("agent", machine_->agent_class());
  enclave_->RegisterAgentTask(1, agent);
  MessageQueue* tiny = enclave_->CreateQueue(/*capacity=*/1);
  enclave_->ConfigQueueWakeup(tiny, agent);

  Task* task = machine_->kernel().CreateTask("w");
  enclave_->AddTask(task);  // THREAD_CREATED -> default queue
  // Drain the creation message first: re-association requires an empty view.
  while (enclave_->PopMessage(enclave_->default_queue()).has_value()) {
  }
  ASSERT_TRUE(enclave_->AssociateQueue(task->tid(), tiny));
  machine_->kernel().StartBurst(task, Microseconds(10),
                                [this](Task* t) { machine_->kernel().Exit(t); });
  machine_->kernel().Wake(task);  // WAKEUP fills the 1-slot queue
  const uint32_t aseq_before_drop = enclave_->agent_status(agent).aseq;
  ASSERT_EQ(tiny->size(), 1u);

  // The agent reads its Aseq and builds a commit on the current view...
  Transaction txn;
  txn.tid = task->tid();
  txn.target_cpu = 0;
  txn.expected_aseq = aseq_before_drop;

  // ...meanwhile an affinity change posts a message that the full queue
  // drops. The drop must not be silent: Aseq advances and staleness state is
  // latched even though no message landed.
  machine_->kernel().SetAffinity(task, CpuMask::Single(1));
  EXPECT_EQ(tiny->size(), 1u) << "message should have been dropped";
  EXPECT_EQ(tiny->overflows(), 1u);
  EXPECT_TRUE(enclave_->overflow_pending());
  EXPECT_EQ(enclave_->agent_status(agent).aseq, aseq_before_drop + 1)
      << "dropped message must still advance the Aseq";

  Transaction* ptr = &txn;
  enclave_->TxnsCommit(std::span<Transaction*>(&ptr, 1), agent,
                       [](int) { return Duration{0}; });
  EXPECT_EQ(txn.status, TxnStatus::kEStale)
      << "in-flight commit across an overflow must fail, not act on the "
         "pre-drop view (target CPU 0 is outside the new affinity)";
  EXPECT_NE(task->last_cpu(), 0);
}

}  // namespace
}  // namespace gs
