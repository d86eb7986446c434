#include "src/agent/task_table.h"

#include "src/base/logging.h"

namespace gs {

std::vector<int64_t> TaskTable::SortedTids() const {
  std::vector<int64_t> tids;
  tids.reserve(size_);
  for (size_t tid = 0; tid < by_tid_.size(); ++tid) {
    if (by_tid_[tid] != nullptr) {
      tids.push_back(static_cast<int64_t>(tid));
    }
  }
  return tids;
}

PolicyTask* TaskTable::Add(int64_t tid) {
  CHECK_GE(tid, 0);
  PolicyTask* task = slab_.New();
  task->tid = tid;
  task->affinity.SetAll();
  if (static_cast<size_t>(tid) >= by_tid_.size()) {
    by_tid_.resize(static_cast<size_t>(tid) + 1, nullptr);
  }
  // Re-adding a tracked tid replaces its entry; the old one stays in the
  // slab until Clear().
  size_ += by_tid_[tid] == nullptr;
  by_tid_[tid] = task;
  return task;
}

void TaskTable::Remove(int64_t tid) {
  if (PolicyTask* task = Find(tid)) {
    slab_.Delete(task);
    by_tid_[tid] = nullptr;
    --size_;
  }
}

TaskTable::Event TaskTable::Apply(const Message& msg, PolicyTask** out) {
  *out = nullptr;
  if (msg.tid == 0) {
    return Event::kNone;  // CPU message (TIMER_TICK)
  }
  PolicyTask* task = Find(msg.tid);

  switch (msg.type) {
    case MessageType::kTaskNew: {
      if (task == nullptr) {
        task = Add(msg.tid);
      }
      task->tseq = msg.tseq;
      task->affinity = *msg.affinity;
      task->runnable = msg.runnable;
      task->became_runnable = msg.posted;
      *out = task;
      return Event::kNew;
    }
    case MessageType::kTaskWakeup:
      if (task == nullptr) {
        return Event::kNone;
      }
      task->tseq = msg.tseq;
      task->runnable = true;
      task->became_runnable = msg.posted;
      *out = task;
      return Event::kRunnable;
    case MessageType::kTaskPreempted:
    case MessageType::kTaskYield:
      if (task == nullptr) {
        return Event::kNone;
      }
      task->tseq = msg.tseq;
      task->runnable = true;
      task->became_runnable = msg.posted;
      task->last_cpu = msg.cpu;
      task->assigned_cpu = -1;
      *out = task;
      return Event::kRunnable;
    case MessageType::kTaskBlocked:
      if (task == nullptr) {
        return Event::kNone;
      }
      task->tseq = msg.tseq;
      task->runnable = false;
      task->last_cpu = msg.cpu;
      task->assigned_cpu = -1;
      *out = task;
      return Event::kBlocked;
    case MessageType::kTaskDead:
    case MessageType::kTaskDeparted:
      if (task == nullptr) {
        return Event::kNone;
      }
      *out = task;  // caller cleans up `user`, then calls Remove()
      return Event::kDead;
    case MessageType::kTaskAffinity:
      if (task == nullptr) {
        return Event::kNone;
      }
      task->tseq = msg.tseq;
      task->affinity = *msg.affinity;
      *out = task;
      return Event::kAffinity;
    case MessageType::kTimerTick:
    case MessageType::kAgentWakeup:
      return Event::kNone;
  }
  return Event::kNone;
}

}  // namespace gs
