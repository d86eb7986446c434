#include "src/verify/invariants.h"

#include <cstring>
#include <sstream>

#include "src/ghost/enclave.h"
#include "src/ghost/ghost_class.h"
#include "src/ghost/ghost_task.h"
#include "src/kernel/kernel.h"

namespace gs {

InvariantChecker::InvariantChecker(Kernel* kernel, Options options)
    : kernel_(kernel), options_(options) {
  last_busy_.assign(kernel_->topology().num_cpus(), kernel_->now());
}

InvariantChecker::~InvariantChecker() { Stop(); }

void InvariantChecker::Watch(Enclave* enclave) { enclaves_.push_back(enclave); }

void InvariantChecker::Start() {
  if (running_) {
    return;
  }
  running_ = true;
  ScheduleNext();
}

void InvariantChecker::Stop() {
  running_ = false;
  if (scan_event_ != kInvalidEventId) {
    kernel_->loop()->Cancel(scan_event_);
    scan_event_ = kInvalidEventId;
  }
}

void InvariantChecker::ScheduleNext() {
  // Periodic: Stop() cancels the armed event; the running_ guard is belt and
  // braces against a stray firing.
  scan_event_ = kernel_->loop()->SchedulePeriodic(
      options_.period, options_.period, [this] {
        if (!running_) {
          return;
        }
        Scan();
      });
}

void InvariantChecker::CheckNow() { Scan(); }

std::string InvariantChecker::Report() const {
  std::ostringstream out;
  for (const std::string& v : violations_) {
    out << v << "\n";
  }
  return out.str();
}

void InvariantChecker::Violation(const std::string& message) {
  if (violations_.size() >= options_.max_violations) {
    return;
  }
  if (!seen_.insert(message).second) {
    return;  // already reported (possibly at an earlier scan)
  }
  std::ostringstream out;
  out << "[invariant t=" << kernel_->now() << "ns] " << message;
  violations_.push_back(out.str());
}

void InvariantChecker::Scan() {
  ++scans_;
  CheckCpus();
  CheckGhostMembership();
  for (Enclave* enclave : enclaves_) {
    CheckEnclave(enclave);
  }
  CheckOrphanedCpuState();
  CheckConservation();
}

void InvariantChecker::CheckOrphanedCpuState() {
  GhostClass* cls = nullptr;
  for (Enclave* enclave : enclaves_) {
    if (enclave->ghost_class() != nullptr) {
      cls = enclave->ghost_class();  // one ghost class per kernel
      break;
    }
  }
  if (cls == nullptr) {
    return;
  }
  const int num_cpus = kernel_->topology().num_cpus();
  for (int cpu = 0; cpu < num_cpus; ++cpu) {
    // A forced-idle marker under a pending latch wedges the CPU permanently:
    // PickNext() returns nullptr so the latch never clears, and every later
    // commit fails ETXNPENDING — the latched task is stranded forever. The
    // only way to reach this state is a stale idle-IPI acting on behalf of an
    // invalidated commit (the commit-generation guard exists to drop it).
    if (Task* latched = cls->LatchedTask(cpu);
        latched != nullptr && cls->forced_idle(cpu)) {
      Violation("cpu " + std::to_string(cpu) + " holds a latch for '" +
                latched->name() +
                "' under a forced-idle marker (wedged commit)");
    }
    if (cls->EnclaveForCpu(cpu) != nullptr) {
      continue;  // the owning enclave's checks cover it
    }
    if (Task* latched = cls->LatchedTask(cpu); latched != nullptr) {
      Violation("cpu " + std::to_string(cpu) + " has no enclave but holds a latch for '" +
                latched->name() + "' (leaked across teardown)");
    }
    if (cls->forced_idle(cpu)) {
      Violation("cpu " + std::to_string(cpu) +
                " has no enclave but is marked forced-idle (leaked across teardown)");
    }
  }
}

void InvariantChecker::CheckCpus() {
  const int num_cpus = kernel_->topology().num_cpus();
  for (int cpu = 0; cpu < num_cpus; ++cpu) {
    const CpuState& cs = kernel_->cpu_state(cpu);
    // The kernel's per-CPU caches against the CpuState they mirror.
    const bool idle = kernel_->CpuIdle(cpu);
    if (kernel_->idle_cpus().IsSet(cpu) != idle) {
      Violation("cpu " + std::to_string(cpu) +
                (idle ? " is idle but its idle bit is clear" : " is busy but its idle bit is set"));
    }
    const Task* occupant = cs.switching ? cs.switching_to : cs.current;
    const int priority = occupant == nullptr ? Kernel::kNoOccupant
                                             : kernel_->ClassIndex(occupant->sched_class());
    if (kernel_->occupant_priority(cpu) != priority) {
      Violation("cpu " + std::to_string(cpu) + " cached occupant priority " +
                std::to_string(kernel_->occupant_priority(cpu)) + " but its occupant's is " +
                std::to_string(priority));
    }
    const Task* current = cs.current;
    if (current == nullptr) {
      continue;
    }
    // A current task may transiently be kBlocked/kDead while its zero-delay
    // deschedule event is queued behind this scan; kRunnable/kCreated never.
    if (current->state() == TaskState::kRunnable ||
        current->state() == TaskState::kCreated) {
      Violation("cpu " + std::to_string(cpu) + " current '" + current->name() +
                "' is " + ToString(current->state()) + ", not running");
    }
    if (current->cpu() != cpu) {
      Violation("cpu " + std::to_string(cpu) + " current '" + current->name() +
                "' believes it is on cpu " + std::to_string(current->cpu()));
    }
    const auto tid = static_cast<size_t>(current->tid());
    if (tid >= current_stamps_.size()) {
      current_stamps_.resize(tid + 1);
    }
    CurrentStamp& stamp = current_stamps_[tid];
    if (stamp.scan == scans_) {
      Violation("task '" + current->name() + "' is current on cpus " +
                std::to_string(stamp.cpu) + " and " + std::to_string(cpu));
    } else {
      stamp = {scans_, cpu};
    }
  }
  // Every running task is current exactly where it says it runs.
  for (const auto& task : kernel_->tasks()) {
    if (task->state() != TaskState::kRunning) {
      continue;
    }
    const int cpu = task->cpu();
    if (cpu < 0 || cpu >= num_cpus) {
      Violation("running task '" + task->name() + "' has invalid cpu " +
                std::to_string(cpu));
      continue;
    }
    if (kernel_->cpu_state(cpu).current != task) {
      Violation("running task '" + task->name() + "' is not current on cpu " +
                std::to_string(cpu));
    }
  }
}

void InvariantChecker::CheckGhostMembership() {
  // No lost tasks: a live thread in the ghOSt class must be enclave-managed
  // (its GhostTask back-pointers intact); only the enclave-destroy/remove
  // paths may strip ghOSt state, and they move the thread to CFS first.
  for (const auto& task : kernel_->tasks()) {
    if (task->state() == TaskState::kDead || task->sched_class() == nullptr) {
      continue;
    }
    const bool in_ghost_class = std::strcmp(task->sched_class()->name(), "ghost") == 0;
    auto* gt = static_cast<GhostTask*>(task->ghost_state());
    if (in_ghost_class && gt == nullptr) {
      Violation("task '" + task->name() + "' is in the ghost class but unmanaged");
    }
    if (gt != nullptr) {
      if (gt->task != task) {
        Violation("task '" + task->name() + "' ghost state points elsewhere");
      }
      if (!in_ghost_class) {
        Violation("task '" + task->name() + "' has ghost state but class " +
                  task->sched_class()->name());
      }
    }
  }
}

void InvariantChecker::CheckEnclave(Enclave* enclave) {
  if (enclave->destroyed()) {
    return;  // threads are back on CFS; the generic checks cover them
  }
  GhostClass* cls = enclave->ghost_class();
  const Time now = kernel_->now();

  // Starvation bound: the watchdog must destroy the enclave before any
  // runnable thread waits timeout + one full scan period (detection latency)
  // + slack. With the watchdog disabled, fall back to the configured bound.
  Duration starvation_bound = options_.ghost_starvation_bound;
  if (enclave->config().watchdog_timeout > 0) {
    starvation_bound = enclave->config().watchdog_timeout +
                       2 * enclave->config().watchdog_period +
                       options_.starvation_slack;
  }

  for (GhostTask* gt : enclave->tasks()) {
    Task* task = gt->task;
    const int64_t tid = task->tid();
    if (enclave->Find(tid) == nullptr) {
      Violation("enclave task tid " + std::to_string(tid) + " has no state");
      continue;
    }
    if (task->state() == TaskState::kDead) {
      Violation("dead task '" + task->name() + "' still enclave-managed");
      continue;
    }
    if (task->sched_class() != cls) {
      Violation("enclave task '" + task->name() + "' is in class " +
                task->sched_class()->name());
    }
    if (task->ghost_state() != gt) {
      Violation("enclave task '" + task->name() + "' ghost-state mismatch");
    }

    // Status word vs kernel truth.
    if (gt->status.tseq != gt->tseq) {
      Violation("task '" + task->name() + "' status tseq " +
                std::to_string(gt->status.tseq) + " != kernel tseq " +
                std::to_string(gt->tseq));
    }
    if (static_cast<size_t>(tid) >= last_tseq_.size()) {
      last_tseq_.resize(static_cast<size_t>(tid) + 1);
    }
    auto& rec = last_tseq_[static_cast<size_t>(tid)];
    if (rec.first == gt->gen && gt->tseq < rec.second) {
      Violation("task '" + task->name() + "' tseq regressed " +
                std::to_string(rec.second) + " -> " + std::to_string(gt->tseq));
    }
    rec = {gt->gen, gt->tseq};

    if ((task->state() == TaskState::kRunnable ||
         task->state() == TaskState::kRunning) &&
        !gt->status.runnable) {
      Violation("task '" + task->name() + "' is " + ToString(task->state()) +
                " but status says not runnable (lost wakeup)");
    }
    if (gt->status.on_cpu) {
      const int cpu = gt->status.cpu;
      if (cpu < 0 || cpu >= kernel_->topology().num_cpus() ||
          kernel_->current(cpu) != task) {
        Violation("task '" + task->name() + "' status claims on_cpu " +
                  std::to_string(cpu) + " but is not current there");
      }
    }
    if (task->state() == TaskState::kRunning &&
        kernel_->current(task->cpu()) == task &&
        (!gt->status.on_cpu || gt->status.cpu != task->cpu())) {
      // A thread that entered the enclave *while running* keeps executing
      // with a blank status word until the pending resched descheduules it
      // (the first ghOSt pick makes the status authoritative) — only a
      // settled CPU makes this a real inconsistency.
      const CpuState& cs = kernel_->cpu_state(task->cpu());
      if (!cs.resched_scheduled && !cs.resched_pending && !cs.switching) {
        Violation("task '" + task->name() + "' runs on cpu " +
                  std::to_string(task->cpu()) + " but status disagrees");
      }
    }

    // Latch back-pointer.
    if (gt->latched_cpu >= 0 && cls->LatchedTask(gt->latched_cpu) != task) {
      Violation("task '" + task->name() + "' believes it is latched on cpu " +
                std::to_string(gt->latched_cpu) + " but is not");
    }

    if (starvation_bound > 0 && task->state() == TaskState::kRunnable &&
        now - task->runnable_since() > starvation_bound) {
      Violation("ghost task '" + task->name() + "' runnable for " +
                std::to_string((now - task->runnable_since()) / 1000) +
                "us, past the watchdog bound (agent and watchdog both failed)");
    }
  }

  // Latch forward-pointers: a pending commit must reference a live, managed
  // thread that points back at the latching CPU.
  const CpuMask& cpus = enclave->cpus();
  for (int cpu = cpus.First(); cpu >= 0; cpu = cpus.NextAfter(cpu)) {
    Task* latched = cls->LatchedTask(cpu);
    if (latched == nullptr) {
      continue;
    }
    if (latched->state() == TaskState::kDead) {
      Violation("cpu " + std::to_string(cpu) + " latch holds dead task '" +
                latched->name() + "'");
      continue;
    }
    auto* lgt = static_cast<GhostTask*>(latched->ghost_state());
    if (lgt == nullptr || lgt->latched_cpu != cpu) {
      Violation("cpu " + std::to_string(cpu) + " latch holds task '" +
                latched->name() + "' that does not point back");
    }
    // A latched thread must not execute anywhere before its latch is
    // consumed: commit validation rejects placed/mid-switch threads and the
    // fast path skips latched ones, so this firing means a pick path handed
    // out a thread the agent had already scheduled elsewhere.
    if (latched->state() == TaskState::kRunning && latched->cpu() != cpu) {
      Violation("cpu " + std::to_string(cpu) + " latch holds task '" +
                latched->name() + "' that is running on cpu " +
                std::to_string(latched->cpu()));
    }
  }

  // Queue accounting: per-task pending counts tally messages that really sit
  // undrained in queues (CPU messages make queued >= pending).
  const int pending = enclave->PendingTaskMessages();
  const size_t queued = enclave->QueuedMessages();
  if (pending < 0 || static_cast<size_t>(pending) > queued) {
    Violation("enclave pending-message count " + std::to_string(pending) +
              " exceeds " + std::to_string(queued) + " queued messages");
  }
}

void InvariantChecker::CheckConservation() {
  const Time now = kernel_->now();
  const int num_cpus = kernel_->topology().num_cpus();
  for (int cpu = 0; cpu < num_cpus; ++cpu) {
    if (!kernel_->CpuIdle(cpu)) {
      last_busy_[cpu] = now;
    }
  }
  if (options_.conservation_grace <= 0) {
    return;
  }
  for (const auto& task : kernel_->tasks()) {
    if (task->state() != TaskState::kRunnable) {
      continue;
    }
    // ghOSt threads are governed by the enclave starvation bound above (an
    // agent may legitimately leave CPUs idle, e.g. a stalled or centralized
    // agent); throttled MicroQuanta threads are idle by design.
    if (task->ghost_state() != nullptr || task->mq().throttled) {
      continue;
    }
    if (now - task->runnable_since() <= options_.conservation_grace) {
      continue;
    }
    for (int cpu = 0; cpu < num_cpus; ++cpu) {
      if (task->affinity().IsSet(cpu) &&
          now - last_busy_[cpu] > options_.conservation_grace) {
        Violation("runnable task '" + task->name() + "' waited " +
                  std::to_string((now - task->runnable_since()) / 1000) +
                  "us while cpu " + std::to_string(cpu) + " sat idle");
        break;
      }
    }
  }
}

}  // namespace gs
