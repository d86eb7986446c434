// Writing a brand-new scheduling policy in a few dozen lines (the paper's
// pitch: "scheduling strategies — previously requiring extensive kernel
// modification — can be implemented in just 10s or 100s of lines of code").
//
// The policy here is a strict-priority centralized scheduler driven by
// application-provided scheduling hints (§4.3): each thread publishes a
// priority in its shared-memory hint word, and the global agent always
// dispatches the lowest-valued runnable thread first. README.md quotes the
// policy class verbatim.
#include <cstdio>
#include <memory>
#include <vector>

#include "src/agent/sdk/sdk.h"
#include "src/sim/simulation.h"

using namespace gs;

namespace {

// The SDK supplies the message plumbing, the inactive agents, the §3.3 hot
// handoff and the group commit; this class writes only the decisions.
class HintPriorityPolicy : public GlobalAgentPolicy {
 public:
  HintPriorityPolicy() : GlobalAgentPolicy(/*global_cpu=*/-1, /*hot_handoff=*/true) {}
  const char* name() const override { return "hint-priority"; }
  std::vector<uint64_t> dispatched;  // hint of each committed thread, in order

 protected:
  void TaskNew(AgentContext& ctx, PolicyTask* t, const Message&) override {
    if (t->runnable) Enqueue(ctx, t);
  }
  void TaskWakeup(AgentContext& ctx, PolicyTask* t, const Message&) override { Enqueue(ctx, t); }
  void TaskPreempted(AgentContext& ctx, PolicyTask* t, const Message&) override { Enqueue(ctx, t); }
  void TaskYield(AgentContext& ctx, PolicyTask* t, const Message&) override { Enqueue(ctx, t); }
  void TaskBlocked(AgentContext&, PolicyTask* t, const Message&) override { Dequeue(t); }
  void TaskDead(AgentContext&, PolicyTask* t, const Message&) override { Dequeue(t); }
  void TaskDeparted(AgentContext&, PolicyTask* t, const Message&) override { Dequeue(t); }

  AgentAction Schedule(AgentContext& ctx) override {
    const CpuMask idle = ctx.AvailableCpus();
    for (int cpu = idle.First(); cpu >= 0 && !rq_.empty(); cpu = idle.NextAfter(cpu)) {
      PolicyTask* next = rq_.PopMin();
      next->queued = false;
      assignments().emplace_back(cpu, next);
    }
    // Tseq-tagged: a commit built on a stale view of a thread fails ESTALE.
    const bool committed = CommitAssignments(ctx, [&](int, PolicyTask* t, bool ok) {
      if (ok) {
        dispatched.push_back(ctx.ReadHint(t->tid));
      } else if (t->runnable) {
        Enqueue(ctx, t);
      }
    });
    return drained() > 0 || committed ? AgentAction::kRunAgain : AgentAction::kPollWait;
  }

 private:
  void Enqueue(AgentContext& ctx, PolicyTask* t) {
    if (t->queued) return;
    t->queued = true;
    rq_.Push(t, static_cast<int64_t>(ctx.ReadHint(t->tid)));  // lower hint runs first
  }
  void Dequeue(PolicyTask* t) {
    if (t->queued) rq_.Remove(t);
    t->queued = false;
  }

  MinRunqueue rq_;
};

}  // namespace

int main() {
  SimulationContext sim({.topology = Topology::Make("custom", 1, 2, 1, 2)});
  auto enclave = sim.CreateEnclave(CpuMask::AllUpTo(2));
  auto policy = std::make_unique<HintPriorityPolicy>();
  HintPriorityPolicy* policy_ptr = policy.get();
  auto agents = sim.CreateAgentProcess(enclave.get(), std::move(policy));
  agents->Start();

  // Ten runnable threads with shuffled priorities; with one worker CPU they
  // must be dispatched in priority order.
  const uint64_t priorities[] = {7, 2, 9, 1, 5, 8, 3, 10, 4, 6};
  for (uint64_t prio : priorities) {
    Task* t = sim.kernel().CreateTask("prio" + std::to_string(prio));
    enclave->AddTask(t);
    enclave->SetHint(t->tid(), prio);
    sim.kernel().StartBurst(t, Microseconds(200), [&sim](Task* task) {
      sim.kernel().Exit(task);
    });
    sim.kernel().Wake(t);
  }
  sim.RunFor(Milliseconds(10));

  const std::vector<uint64_t>& order = policy_ptr->dispatched;
  std::printf("custom_policy: dispatched priorities in order:");
  bool sorted = true;
  for (size_t i = 0; i < order.size(); ++i) {
    std::printf(" %llu", (unsigned long long)order[i]);
    if (i > 0 && order[i] < order[i - 1]) {
      sorted = false;
    }
  }
  std::printf("\n%s (the whole policy is the ~50-line class above)\n",
              sorted && order.size() == 10 ? "strict priority order held"
                                           : "ERROR: dispatch order violated priorities");
  return sorted && order.size() == 10 ? 0 : 1;
}
