#include "src/agent/policy.h"

#include <algorithm>

namespace gs {

void Policy::Dispatch(AgentContext& ctx, const Message& msg) {
  PolicyTask* task = nullptr;
  const TaskTable::Event event = table_.Apply(msg, &task);
  switch (event) {
    case TaskTable::Event::kNone:
      // CPU-scoped or about an unknown (already dead) thread.
      if (msg.type == MessageType::kTimerTick) {
        TimerTick(ctx, msg);
      } else if (msg.type == MessageType::kAgentWakeup) {
        AgentWakeup(ctx, msg);
      }
      break;
    case TaskTable::Event::kNew:
      TaskNew(ctx, task, msg);
      break;
    case TaskTable::Event::kRunnable:
      if (msg.type == MessageType::kTaskPreempted) {
        TaskPreempted(ctx, task, msg);
      } else if (msg.type == MessageType::kTaskYield) {
        TaskYield(ctx, task, msg);
      } else {
        TaskWakeup(ctx, task, msg);
      }
      break;
    case TaskTable::Event::kBlocked:
      TaskBlocked(ctx, task, msg);
      break;
    case TaskTable::Event::kDead:
      if (msg.type == MessageType::kTaskDeparted) {
        TaskDeparted(ctx, task, msg);
      } else {
        TaskDead(ctx, task, msg);
      }
      table_.Remove(msg.tid);
      break;
    case TaskTable::Event::kAffinity:
      TaskAffinity(ctx, task, msg);
      break;
  }
}

void Policy::Restore(const std::vector<Enclave::TaskInfo>& dump) {
  restore_backlog_.clear();
  restore_masks_.clear();
  // Table entries the dump no longer mentions departed while our view was
  // stale (or under the outgoing policy of a live swap). Mark survivors as
  // we walk the dump; sorted iteration keeps the backlog deterministic.
  std::vector<int64_t> stale = table_.SortedTids();
  for (const Enclave::TaskInfo& info : dump) {
    stale.erase(std::remove(stale.begin(), stale.end(), info.tid), stale.end());
    Message msg;
    msg.tid = info.tid;
    msg.tseq = info.tseq;
    PolicyTask* task = table_.Find(info.tid);
    if (task == nullptr) {
      // An on-cpu thread is not re-enqueued: it already holds a CPU, and its
      // eventual preempt/yield/block message re-enters it the normal way.
      msg.type = MessageType::kTaskNew;
      msg.affinity = &restore_masks_.emplace_back(info.affinity);
      msg.runnable = info.runnable && !info.on_cpu;
    } else if (info.runnable && !info.on_cpu && !task->runnable) {
      msg.type = MessageType::kTaskWakeup;  // lost wakeup: kernel says ready
    } else if (!info.runnable && task->runnable) {
      msg.type = MessageType::kTaskBlocked;
      msg.cpu = task->assigned_cpu >= 0 ? task->assigned_cpu : task->last_cpu;
    } else {
      continue;  // views agree; nothing to replay
    }
    restore_backlog_.push_back(msg);
  }
  for (int64_t tid : stale) {
    Message msg;
    msg.type = MessageType::kTaskDeparted;
    msg.tid = tid;
    restore_backlog_.push_back(msg);
  }
}

AgentAction Policy::RunAgent(AgentContext& ctx) {
  if (std::optional<AgentAction> action = BeforeDrain(ctx)) {
    return *action;
  }
  if (!restore_backlog_.empty()) {
    // Swap out first: a hook may trigger another Restore() (it should not,
    // but a hostile subclass can), and Dispatch must not walk a mutating
    // vector.
    std::vector<Message> backlog;
    backlog.swap(restore_backlog_);
    std::deque<CpuMask> masks;
    masks.swap(restore_masks_);
    for (Message& msg : backlog) {
      msg.posted = ctx.kernel()->now();
      Dispatch(ctx, msg);
    }
  }
  scratch_queues_.clear();
  CollectQueues(ctx, &scratch_queues_);
  scratch_msgs_.clear();
  for (MessageQueue* queue : scratch_queues_) {
    ctx.Drain(queue, &scratch_msgs_);
  }
  for (const Message& msg : scratch_msgs_) {
    Dispatch(ctx, msg);
  }
  return Schedule(ctx);
}

}  // namespace gs
