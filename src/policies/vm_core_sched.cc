#include "src/policies/vm_core_sched.h"

#include <algorithm>

namespace gs {

VmCoreSchedPolicy::VmCoreSchedPolicy(Options options)
    : GlobalAgentPolicy(options.global_cpu, /*hot_handoff=*/false),
      options_(std::move(options)) {
  CHECK(options_.cookie_of != nullptr);
}

void VmCoreSchedPolicy::Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) {
  GlobalAgentPolicy::Attached(process, enclave, kernel);

  // Build the schedulable core list: every physical core whose CPUs are all
  // in the enclave, except the global agent's own core (its sibling can
  // never be part of a secure pair while the agent spins).
  const Topology& topo = kernel->topology();
  const int agent_core = topo.cpu(global_cpu()).core;
  for (int core = 0; core < topo.num_cores(); ++core) {
    if (core == agent_core) {
      continue;
    }
    const CpuMask cpus = topo.CoreMask(core);
    bool all_in = true;
    for (int cpu = cpus.First(); cpu >= 0; cpu = cpus.NextAfter(cpu)) {
      all_in &= enclave->cpus().IsSet(cpu);
    }
    if (!all_in) {
      continue;
    }
    Core c;
    c.cpu_a = cpus.First();
    c.cpu_b = cpus.NextAfter(c.cpu_a);
    cores_.push_back(c);
  }
}

VmCoreSchedPolicy::Vm* VmCoreSchedPolicy::VmOf(int64_t tid) {
  const int64_t cookie = options_.cookie_of(tid);
  CHECK_NE(cookie, 0) << "thread " << tid << " has no VM cookie";
  Vm& vm = vms_[cookie];
  vm.cookie = cookie;
  return &vm;
}

void VmCoreSchedPolicy::TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  VmOf(task->tid)->threads.push_back(task);
}

void VmCoreSchedPolicy::TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) {
  Vm* vm = VmOf(task->tid);
  vm->threads.erase(std::remove(vm->threads.begin(), vm->threads.end(), task),
                    vm->threads.end());
}

void VmCoreSchedPolicy::TaskDeparted(AgentContext& ctx, PolicyTask* task,
                                     const Message& msg) {
  TaskDead(ctx, task, msg);
}

int VmCoreSchedPolicy::RunnableThreads(const Vm& vm) const {
  int count = 0;
  for (const PolicyTask* task : vm.threads) {
    if (task->runnable) {
      ++count;
    }
  }
  return count;
}

bool VmCoreSchedPolicy::CoreFullyAvailable(AgentContext& ctx, const Core& core) const {
  // Both siblings idle with no pending transaction. (ctx.CpuAvailable charges
  // the status-word read.)
  AgentContext& mut = const_cast<AgentContext&>(ctx);
  if (!mut.CpuAvailable(core.cpu_a)) {
    return false;
  }
  return core.cpu_b < 0 || mut.CpuAvailable(core.cpu_b);
}

void VmCoreSchedPolicy::ReleaseCore(Vm* vm) {
  if (vm->core >= 0) {
    cores_[vm->core].cookie = 0;
    vm->core = -1;
  }
}

bool VmCoreSchedPolicy::PlaceVm(AgentContext& ctx, int core_index, Vm* vm) {
  Core& core = cores_[core_index];
  std::vector<PolicyTask*> to_run;
  for (PolicyTask* task : vm->threads) {
    if (task->runnable && task->assigned_cpu < 0 &&
        static_cast<int>(to_run.size()) < (core.cpu_b >= 0 ? 2 : 1)) {
      to_run.push_back(task);
    }
  }
  if (to_run.empty()) {
    return false;
  }

  // Synchronized group: both siblings commit together — a vCPU on one and
  // either a vCPU or a forced-idle marker on the other (Fig 9).
  std::vector<Transaction> storage;
  storage.reserve(2);
  Transaction a = AgentContext::MakeTxn(to_run[0]->tid, core.cpu_a);
  a.expected_tseq = to_run[0]->tseq;
  a.sync_group = core_index;
  storage.push_back(a);
  if (core.cpu_b >= 0) {
    Transaction b;
    if (to_run.size() > 1) {
      b = AgentContext::MakeTxn(to_run[1]->tid, core.cpu_b);
      b.expected_tseq = to_run[1]->tseq;
    } else {
      b.target_cpu = core.cpu_b;
      b.idle = true;  // the VM occupies one sibling; the other runs idle
    }
    b.sync_group = core_index;
    storage.push_back(b);
  }
  std::vector<Transaction*> txns;
  for (Transaction& txn : storage) {
    txns.push_back(&txn);
  }
  ctx.Commit(txns);
  for (const Transaction* txn : txns) {
    if (!txn->committed()) {
      ++group_failures_;
      return false;
    }
  }
  for (size_t i = 0; i < to_run.size(); ++i) {
    to_run[i]->assigned_cpu = i == 0 ? core.cpu_a : core.cpu_b;
    to_run[i]->last_cpu = to_run[i]->assigned_cpu;
  }
  ReleaseCore(vm);
  core.cookie = vm->cookie;
  vm->core = core_index;
  vm->placed_at = ctx.start();
  vm->deadline = ctx.start() + options_.slice;
  ++cores_scheduled_;
  return true;
}

AgentAction VmCoreSchedPolicy::Schedule(AgentContext& ctx) {
  bool progress = drained() > 0;

  // 1. Release cores whose VM has fully drained (blocked or exited).
  for (auto& [cookie, vm] : vms_) {
    if (vm.core >= 0 && RunnableThreads(vm) == 0) {
      bool any_on_cpu = false;
      for (const PolicyTask* task : vm.threads) {
        any_on_cpu |= task->assigned_cpu >= 0;
      }
      if (!any_on_cpu) {
        ReleaseCore(&vm);
      }
    }
  }

  // 2. A placed VM with a newly runnable vCPU re-fills its own core's free
  // sibling (same cookie: no synchronization needed).
  for (auto& [cookie, vm] : vms_) {
    if (vm.core < 0) {
      continue;
    }
    const Core& core = cores_[vm.core];
    for (PolicyTask* task : vm.threads) {
      if (!task->runnable || task->assigned_cpu >= 0) {
        continue;
      }
      for (int cpu : {core.cpu_a, core.cpu_b}) {
        if (cpu >= 0 && ctx.CpuAvailable(cpu)) {
          Transaction txn = AgentContext::MakeTxn(task->tid, cpu);
          txn.expected_tseq = task->tseq;
          Transaction* ptr = &txn;
          ctx.Commit(ptr);
          if (txn.committed()) {
            task->assigned_cpu = cpu;
            task->last_cpu = cpu;
            progress = true;
          }
          break;
        }
      }
    }
  }

  // 3. Fill fully free cores with waiting VMs in EDF order.
  std::vector<Vm*> waiting;
  for (auto& [cookie, vm] : vms_) {
    if (vm.core < 0 && RunnableThreads(vm) > 0) {
      waiting.push_back(&vm);
    }
  }
  std::sort(waiting.begin(), waiting.end(),
            [](const Vm* a, const Vm* b) { return a->deadline < b->deadline; });
  size_t next_waiting = 0;
  for (size_t c = 0; c < cores_.size() && next_waiting < waiting.size(); ++c) {
    if (cores_[c].cookie != 0 || !CoreFullyAvailable(ctx, cores_[c])) {
      continue;
    }
    if (PlaceVm(ctx, static_cast<int>(c), waiting[next_waiting])) {
      ++next_waiting;
      progress = true;
    }
  }

  // 4. EDF rotation: preempt over-slice VMs when others wait.
  Time earliest_expiry = kTimeNever;
  if (next_waiting < waiting.size()) {
    for (auto& [cookie, vm] : vms_) {
      if (next_waiting >= waiting.size()) {
        break;
      }
      if (vm.core < 0) {
        continue;
      }
      if (ctx.start() - vm.placed_at >= options_.slice) {
        // Preempt the whole core with a synchronized commit of the waiting VM.
        Vm* incoming = waiting[next_waiting];
        const int core_index = vm.core;
        // The outgoing VM's threads will report PREEMPTED; mark them free.
        for (PolicyTask* task : vm.threads) {
          task->assigned_cpu = -1;
        }
        ReleaseCore(&vm);
        if (PlaceVm(ctx, core_index, incoming)) {
          ++next_waiting;
          progress = true;
        }
      } else {
        earliest_expiry = std::min(earliest_expiry, vm.placed_at + options_.slice);
      }
    }
  }
  if (earliest_expiry != kTimeNever) {
    ctx.RequestWakeupAt(earliest_expiry);
  }
  return progress ? AgentAction::kRunAgain : AgentAction::kPollWait;
}

}  // namespace gs
