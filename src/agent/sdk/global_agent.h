// GlobalAgentPolicy: the centralized shape (Fig 4) shared by every policy in
// which one spinning global agent schedules the whole enclave.
//
//  * The agent on global_cpu() drains the enclave default queue. The agents
//    on all other CPUs are inactive (Fig 2): they block before they drain
//    anything, so every message waits for the global agent.
//  * With hot handoff on, the global agent checks before each drain whether
//    the kernel wants its CPU for a non-ghOSt thread (§3.3). If so, it wakes
//    an inactive agent on an idle CPU as the new global agent and yields
//    without draining; the successor drains on its first iteration. Policy
//    state is shared process memory, so the successor resumes seamlessly.
//  * Schedule() appends (cpu, task) pairs to assignments() and hands them to
//    CommitAssignments(), which issues them as tseq-tagged group commits.
#ifndef GHOST_SIM_SRC_AGENT_SDK_GLOBAL_AGENT_H_
#define GHOST_SIM_SRC_AGENT_SDK_GLOBAL_AGENT_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "src/agent/policy.h"

namespace gs {

class GlobalAgentPolicy : public Policy {
 public:
  // Subclasses that override this call it first.
  void Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) override;

  int global_cpu() const { return global_cpu_; }
  uint64_t hot_handoffs() const { return hot_handoffs_; }
  // Transactions CommitAssignments() committed / saw fail.
  uint64_t scheduled() const { return scheduled_; }
  uint64_t txn_failures() const { return txn_failures_; }

 protected:
  // `global_cpu` < 0 picks the first enclave CPU.
  GlobalAgentPolicy(int global_cpu, bool hot_handoff)
      : requested_cpu_(global_cpu), hot_handoff_(hot_handoff) {}

  std::optional<AgentAction> BeforeDrain(AgentContext& ctx) final;
  void CollectQueues(AgentContext& ctx, std::vector<MessageQueue*>* queues) final;

  Enclave* enclave() const { return enclave_; }

  // This iteration's (cpu, task) decisions; empty when Schedule() starts.
  std::vector<std::pair<int, PolicyTask*>>& assignments() { return assignments_; }

  // Commits assignments() in order, each transaction tagged with the task's
  // expected_tseq (§3.3 staleness detection), in group commits of at most
  // `max_group` transactions per syscall. A committed task's assigned_cpu
  // and last_cpu become its CPU. Then calls on_result(cpu, task, committed)
  // per assignment, in order. Returns whether any transaction committed.
  template <typename OnResult>
  bool CommitAssignments(AgentContext& ctx, OnResult on_result,
                         size_t max_group = SIZE_MAX);

  // The full-view replacement a subclass's Restore() (also the overflow-
  // resync path) runs after clearing its own runqueues: clears the task
  // table, routes every dumped thread to the default queue, copies its
  // tseq/affinity/runnable state and, when on a CPU, that CPU as
  // assigned_cpu, then calls place(task, info) to seat it as running or
  // queue it.
  template <typename Place>
  void RestoreView(const std::vector<Enclave::TaskInfo>& dump, Place place);

 private:
  // Wakes a blocked inactive agent on an idle CPU as the new global agent;
  // false if no idle CPU has one.
  bool HandOff(AgentContext& ctx);

  const int requested_cpu_;
  const bool hot_handoff_;
  AgentProcess* process_ = nullptr;
  Enclave* enclave_ = nullptr;
  int global_cpu_ = -1;
  // Per-iteration scratch, reused so the steady-state loop never mallocs.
  std::vector<std::pair<int, PolicyTask*>> assignments_;
  std::vector<Transaction> txns_;
  std::vector<Transaction*> txn_ptrs_;

  uint64_t hot_handoffs_ = 0;
  uint64_t scheduled_ = 0;
  uint64_t txn_failures_ = 0;
};

template <typename OnResult>
bool GlobalAgentPolicy::CommitAssignments(AgentContext& ctx, OnResult on_result,
                                          size_t max_group) {
  if (assignments_.empty()) {
    return false;
  }
  txns_.assign(assignments_.size(), Transaction{});
  txn_ptrs_.resize(assignments_.size());
  for (size_t i = 0; i < assignments_.size(); ++i) {
    const auto [cpu, task] = assignments_[i];
    txns_[i] = AgentContext::MakeTxn(task->tid, cpu);
    txns_[i].expected_tseq = task->tseq;
    txn_ptrs_[i] = &txns_[i];
  }
  for (size_t off = 0; off < txn_ptrs_.size(); off += max_group) {
    ctx.Commit(std::span<Transaction*>(txn_ptrs_).subspan(
        off, std::min(max_group, txn_ptrs_.size() - off)));
  }
  bool any = false;
  for (size_t i = 0; i < assignments_.size(); ++i) {
    const auto [cpu, task] = assignments_[i];
    const bool committed = txns_[i].committed();
    if (committed) {
      task->assigned_cpu = cpu;
      task->last_cpu = cpu;
      ++scheduled_;
      any = true;
    } else {
      ++txn_failures_;
    }
    on_result(cpu, task, committed);
  }
  return any;
}

template <typename Place>
void GlobalAgentPolicy::RestoreView(const std::vector<Enclave::TaskInfo>& dump, Place place) {
  table().Clear();
  for (const Enclave::TaskInfo& info : dump) {
    // Route future messages to this policy's (default) queue, regardless of
    // what the previous agent had configured.
    CHECK(enclave_->AssociateQueue(info.tid, enclave_->default_queue()));
    PolicyTask* task = table().Add(info.tid);
    task->tseq = info.tseq;
    task->affinity = info.affinity;
    task->runnable = info.runnable;
    if (info.on_cpu) {
      task->assigned_cpu = info.cpu;
    }
    place(task, info);
  }
}

}  // namespace gs

#endif  // GHOST_SIM_SRC_AGENT_SDK_GLOBAL_AGENT_H_
