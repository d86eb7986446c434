#include "src/policies/ab_test_policy.h"

#include "src/kernel/kernel.h"

namespace gs {

namespace {
// splitmix64 finalizer: the lane split must be uniform over sequential tids
// and identical in every run, promote, and rollback.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}
}  // namespace

bool AbTestPolicy::InCanary(int64_t tid) const {
  return static_cast<int>(Mix(static_cast<uint64_t>(tid)) % 100) < options_.canary_percent;
}

void AbTestPolicy::Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) {
  PerCpuFifoPolicy::Attached(process, enclave, kernel);
  StatsRegistry& stats = *kernel->stats();
  const char* lane_name[2] = {"ab-base", "ab-canary"};
  for (int lane = 0; lane < 2; ++lane) {
    stat_scheduled_[lane] =
        stats.GetCounter("ab_lane_scheduled", {{"policy", lane_name[lane]}});
    stat_completed_[lane] =
        stats.GetCounter("ab_lane_completed", {{"policy", lane_name[lane]}});
  }
}

void AbTestPolicy::TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  Enqueue(ctx, task, AdmitAt(task->tid));
}

void AbTestPolicy::TaskYield(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  Enqueue(ctx, task, AdmitAt(task->tid));
}

void AbTestPolicy::TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  // Only a death completes a thread; a departed one left the enclave alive.
  const int lane = LaneOf(task->tid);
  ++lanes_[lane].completed;
  stat_completed_[lane]->Inc();
  PerCpuFifoPolicy::TaskDead(ctx, task, msg);
}

void AbTestPolicy::Committed(AgentContext& ctx, PolicyTask* task) {
  const int lane = LaneOf(task->tid);
  ++lanes_[lane].scheduled;
  stat_scheduled_[lane]->Inc();
}

}  // namespace gs
