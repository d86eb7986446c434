// Policy: the userspace scheduling logic that runs inside agents, and the one
// authoring surface for it.
//
// A policy is invoked one loop iteration at a time (Fig 3 / Fig 4 of the
// paper). All interaction with the kernel goes through AgentContext, which
// charges virtual-time costs for every operation so that policy complexity
// translates into scheduling latency exactly as it does on real hardware.
// The returned action tells the agent runtime what the agent thread does
// next: spin another iteration, poll-wait, yield the CPU to a freshly
// committed thread (per-CPU model), or block until a queue wakeup.
//
// The base class owns the iteration shape, in the style of upstream
// ghost-userspace's BasicDispatchScheduler: each RunAgent() drains the queues
// the subclass nominates, folds every message into the shared TaskTable,
// routes it to a per-type virtual hook (TaskNew/TaskWakeup/TaskBlocked/
// TaskPreempted/TaskYield/TaskDead/TaskDeparted/TaskAffinity/TimerTick/
// AgentWakeup), and then asks the subclass to Schedule(). Subclasses keep
// only the decisions that make a policy a policy: where a task goes when it
// becomes runnable, and what to commit.
//
// Hook contract:
//  * `task` is the TaskTable entry, already updated from the message
//    (runnable/tseq/affinity/last_cpu reflect the message's effect, and a
//    preempt/yield/block has already cleared assigned_cpu — msg.cpu still
//    names the CPU the thread left);
//  * for TaskDead/TaskDeparted the entry is removed from the table right
//    after the hook returns — drop runqueue links and `user` state inside;
//  * CPU-scoped messages (TimerTick) and bookkeeping wakeups (AgentWakeup)
//    carry no task; hooks receive the raw message only;
//  * messages about threads the table does not know (already dead) are
//    dropped before any hook fires, but still count in drained().
//
// Two SDK shapes sit on it: PerCpuAgentPolicy (src/agent/sdk/per_cpu_agent.h)
// is the per-CPU one (Fig 3) and GlobalAgentPolicy
// (src/agent/sdk/global_agent.h) the centralized one (Fig 4). Subclass
// Policy directly only to hand-roll the loop, as the policy fuzzer's hostile
// policies do.
#ifndef GHOST_SIM_SRC_AGENT_POLICY_H_
#define GHOST_SIM_SRC_AGENT_POLICY_H_

#include <optional>
#include <vector>

#include "src/agent/agent_context.h"
#include "src/agent/task_table.h"
#include "src/ghost/enclave.h"

namespace gs {

class AgentProcess;

enum class AgentAction {
  kRunAgain,  // immediately run another iteration (spinning agent with work)
  kPollWait,  // spin idle: stay on the CPU, re-run when poked (global agent)
  kYield,     // vacate the CPU (per-CPU agent after a local commit)
  kBlock,     // sleep until a queue wakeup (inactive / per-CPU idle agent)
};

class Policy {
 public:
  virtual ~Policy() = default;

  virtual const char* name() const = 0;

  // Called once before agents start: create queues, configure wakeups,
  // install fast paths.
  virtual void Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) {}

  // Called when this policy's process takes over an enclave that already
  // contains threads (in-place agent upgrade or live swap, §3.4), and on
  // every message-queue overflow resync.
  //
  // The default reconciles the table against the kernel dump by
  // synthesizing messages, dispatched through the normal hook path at the
  // start of the next RunAgent iteration. Threads the dump knows and the
  // table does not become kTaskNew (a fresh policy instance re-places
  // everything this way — a thread the outgoing policy never scheduled is
  // still re-announced, never silently dropped); known threads whose
  // runnability disagrees with the dump get kTaskWakeup / kTaskBlocked;
  // table entries missing from the dump get kTaskDeparted. Subclasses with
  // richer state (home CPUs, priority arrays) override with full-view
  // replacement instead; this default keeps hook-only policies correct
  // without one.
  virtual void Restore(const std::vector<Enclave::TaskInfo>& dump);

  // One iteration of the agent loop for the agent pinned to ctx.agent_cpu():
  // BeforeDrain(), then the Restore() backlog, then every message of the
  // CollectQueues() queues through the hooks, then Schedule(). Not virtual:
  // the base owns the iteration shape; subclasses customize through the
  // hooks below.
  AgentAction RunAgent(AgentContext& ctx);

  // Number of runnable-but-unscheduled threads the policy currently tracks,
  // or -1 if the policy has no meaningful runqueue. Sampled once per agent
  // iteration into the `policy_runqueue_depth{policy=...}` metric.
  virtual int RunqueueDepth() const { return -1; }

 protected:
  // ---- Subclass obligations --------------------------------------------------
  // Appends the queues this agent drains each iteration, in drain order
  // (e.g. the boss agent adds the enclave default queue before its own).
  virtual void CollectQueues(AgentContext& ctx, std::vector<MessageQueue*>* queues) = 0;

  // Runs after every drained message has been dispatched: pick, commit, and
  // return what the agent thread does next.
  virtual AgentAction Schedule(AgentContext& ctx) = 0;

  // Runs first in every iteration; an action returned here ends the
  // iteration before anything is dispatched or drained (an inactive global
  // agent blocks, a handing-off one yields). Default: never.
  virtual std::optional<AgentAction> BeforeDrain(AgentContext& ctx) { return std::nullopt; }

  // ---- Typed message hooks (default: accept the table update, do nothing) ---
  virtual void TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) {}
  virtual void TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) {}
  virtual void TaskPreempted(AgentContext& ctx, PolicyTask* task, const Message& msg) {}
  virtual void TaskYield(AgentContext& ctx, PolicyTask* task, const Message& msg) {}
  virtual void TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) {}
  virtual void TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) {}
  virtual void TaskDeparted(AgentContext& ctx, PolicyTask* task, const Message& msg) {}
  virtual void TaskAffinity(AgentContext& ctx, PolicyTask* task, const Message& msg) {}
  virtual void TimerTick(AgentContext& ctx, const Message& msg) {}
  virtual void AgentWakeup(AgentContext& ctx, const Message& msg) {}

  // The message-driven thread view shared by the base and the subclass
  // (Restore() paths may rebuild it directly).
  TaskTable& table() { return table_; }

  // Routes one message through the table and the hooks; exposed for code
  // that drains a queue outside the iteration's own drain (e.g. the §3.1
  // steal draining a victim queue).
  void Dispatch(AgentContext& ctx, const Message& msg);

  // Messages this iteration drained from the CollectQueues() queues,
  // including those about already-dead threads. Meaningful in Schedule().
  int drained() const { return static_cast<int>(scratch_msgs_.size()); }

 private:
  TaskTable table_;
  std::vector<MessageQueue*> scratch_queues_;
  std::vector<Message> scratch_msgs_;
  // Synthesized by the default Restore(); dispatched (then cleared) before
  // the queue drain of the next iteration. Deferred because Restore() runs
  // without an AgentContext.
  std::vector<Message> restore_backlog_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_AGENT_POLICY_H_
