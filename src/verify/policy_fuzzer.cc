#include "src/verify/policy_fuzzer.h"

#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include "src/agent/agent_process.h"
#include "src/agent/policy.h"
#include "src/agent/sdk/runqueue.h"
#include "src/base/rng.h"
#include "src/policies/per_cpu_fifo.h"
#include "src/sim/fault_injector.h"
#include "src/sim/simulation.h"
#include "src/verify/invariants.h"

namespace gs {
namespace {

std::string FirstLine(const std::string& text) {
  const size_t nl = text.find('\n');
  return nl == std::string::npos ? text : text.substr(0, nl);
}

// The generated adversary. Centralized (only the boss agent schedules, the
// rest just exist — itself a legal-but-unhelpful shape) and every decision
// runs through the seeded knobs. Deliberately does NOT override Restore():
// the Policy base's reconciliation default must keep even this policy's
// post-swap view sound.
class HostilePolicy : public Policy {
 public:
  explicit HostilePolicy(const HostileConfig& config)
      : config_(config), rng_(config.seed ^ 0x4057113e5ULL) {}

  const char* name() const override { return "hostile-fuzz"; }

  void Attached(AgentProcess* process, Enclave* enclave, Kernel* kernel) override {
    enclave_ = enclave;
    process_ = process;
    kernel_ = kernel;
    const CpuMask& cpus = enclave->cpus();
    boss_cpu_ = cpus.First();
    cpu_list_.clear();
    for (int cpu = cpus.First(); cpu >= 0; cpu = cpus.NextAfter(cpu)) {
      cpu_list_.push_back(cpu);
    }
    // Everything stays on the default queue; only the boss drains it.
    enclave->ConfigQueueWakeup(enclave->default_queue(), process->agent_on(boss_cpu_));
  }

  int RunqueueDepth() const override { return static_cast<int>(rq_.size()); }

 protected:
  void CollectQueues(AgentContext& ctx, std::vector<MessageQueue*>* queues) override {
    if (ctx.agent_cpu() == boss_cpu_) {
      queues->push_back(enclave_->default_queue());
    }
  }

  void TaskNew(AgentContext& ctx, PolicyTask* task, const Message& msg) override {
    if (Chance(config_.drop_new_pct)) {
      return;  // hostile: pretend the thread never arrived
    }
    Enqueue(task);
  }
  void TaskWakeup(AgentContext& ctx, PolicyTask* task, const Message& msg) override {
    MaybeEnqueue(task);
  }
  void TaskPreempted(AgentContext& ctx, PolicyTask* task, const Message& msg) override {
    MaybeEnqueue(task);
  }
  void TaskYield(AgentContext& ctx, PolicyTask* task, const Message& msg) override {
    MaybeEnqueue(task);
  }
  void TaskBlocked(AgentContext& ctx, PolicyTask* task, const Message& msg) override {
    Evict(task);
  }
  void TaskDead(AgentContext& ctx, PolicyTask* task, const Message& msg) override {
    Evict(task);
  }
  void TaskDeparted(AgentContext& ctx, PolicyTask* task, const Message& msg) override {
    Evict(task);
  }

  AgentAction Schedule(AgentContext& ctx) override {
    // Policy code takes time even when hostile; without this a spinning
    // agent would also be a zero-cost one.
    ctx.Charge(Nanoseconds(200));
    if (ctx.agent_cpu() != boss_cpu_) {
      return AgentAction::kBlock;
    }
    if (Chance(config_.idle_commit_pct)) {
      // Spurious idle transaction at a random CPU (§4.5 shape, no group).
      Transaction idle;
      idle.idle = true;
      idle.target_cpu = RandomCpu();
      ctx.Commit(&idle);
    }
    if (rq_.empty()) {
      return AgentAction::kBlock;
    }
    if (Chance(config_.block_with_work_pct)) {
      return AgentAction::kBlock;  // hostile: sleep on a non-empty runqueue
    }

    PolicyTask* next = rq_.Pop();
    next->queued = false;

    if (Chance(config_.conflict_group_pct) && !rq_.empty()) {
      // Conflicting synchronized group: both members name the same CPU, so
      // the group can never commit whole and must roll back untouched.
      PolicyTask* second = rq_.Pop();
      second->queued = false;
      const int cpu = RandomCpu();
      Transaction ta = AgentContext::MakeTxn(next->tid, cpu);
      ta.sync_group = 7;
      Transaction tb = AgentContext::MakeTxn(second->tid, cpu);
      tb.sync_group = 7;
      Transaction* txns[] = {&ta, &tb};
      ctx.Commit(std::span<Transaction*>(txns, 2));
      Requeue(next, ta.committed());
      Requeue(second, tb.committed());
      return AgentAction::kRunAgain;
    }

    const bool remote = Chance(config_.remote_pct);
    const int target = remote ? RandomCpu() : ctx.agent_cpu();
    Transaction txn = AgentContext::MakeTxn(next->tid, target);
    if (!Chance(config_.stale_cpu_pct)) {
      txn.expected_aseq = ctx.ReadAseq();
    }
    ctx.Commit(&txn);
    if (txn.committed()) {
      next->assigned_cpu = target;
      if (target == ctx.agent_cpu() && Chance(config_.never_yield_pct)) {
        // Hostile: spin instead of vacating, so the local latch starves
        // behind us until something preempts the agent.
        return AgentAction::kRunAgain;
      }
      return target == ctx.agent_cpu() ? AgentAction::kYield : AgentAction::kRunAgain;
    }
    Requeue(next, /*committed=*/false);
    return AgentAction::kRunAgain;
  }

 private:
  bool Chance(int pct) {
    return pct > 0 && static_cast<int>(rng_.NextBounded(100)) < pct;
  }
  int RandomCpu() {
    return cpu_list_[rng_.NextBounded(cpu_list_.size())];
  }
  void MaybeEnqueue(PolicyTask* task) {
    if (Chance(config_.drop_wakeup_pct)) {
      return;  // hostile: swallow the wakeup
    }
    Enqueue(task);
  }
  void Enqueue(PolicyTask* task) {
    if (task->runnable && !task->queued) {
      task->queued = true;
      rq_.Push(task);
    }
  }
  void Requeue(PolicyTask* task, bool committed) {
    if (!committed && task->runnable && !task->queued) {
      task->queued = true;
      rq_.Push(task);
    }
  }
  void Evict(PolicyTask* task) {
    if (task->queued) {
      rq_.Remove(task);
      task->queued = false;
    }
  }

  HostileConfig config_;
  Rng rng_;
  Enclave* enclave_ = nullptr;
  AgentProcess* process_ = nullptr;
  Kernel* kernel_ = nullptr;
  int boss_cpu_ = -1;
  std::vector<int> cpu_list_;
  FifoRunqueue rq_;
};

// Worker life: `cycles` rounds of (burst, block, timed rewake), then exit.
// Everything is driven off burst completions and loop timers, so the pattern
// is deterministic under any oracle schedule.
void RunWorkerCycle(Kernel& kernel, EventLoop& loop, Task* worker, int cycles,
                    Duration burst, Duration sleep) {
  kernel.StartBurst(worker, burst,
                    [&kernel, &loop, cycles, burst, sleep](Task* task) {
                      if (cycles <= 1) {
                        kernel.Exit(task);
                        return;
                      }
                      kernel.Block(task);
                      loop.ScheduleAfter(
                          sleep, [&kernel, &loop, task, cycles, burst, sleep] {
                            if (task->state() != TaskState::kBlocked) {
                              return;
                            }
                            RunWorkerCycle(kernel, loop, task, cycles - 1, burst,
                                           sleep);
                            kernel.Wake(task);
                          });
                    });
}

}  // namespace

HostileConfig GenerateHostileConfig(uint64_t seed) {
  HostileConfig config;
  config.seed = seed;
  Rng rng(seed ^ 0xf022a1ab5eed0007ULL);
  // Each knob joins the composition with probability 1/2 at strength 10..60%
  // — strong enough to bite, weak enough that several behaviors interleave.
  auto knob = [&rng] {
    return rng.NextBounded(2) == 0 ? 0 : 10 + static_cast<int>(rng.NextBounded(51));
  };
  config.drop_wakeup_pct = knob();
  config.drop_new_pct = knob();
  config.stale_cpu_pct = knob();
  config.remote_pct = knob();
  config.idle_commit_pct = knob();
  config.conflict_group_pct = knob();
  config.never_yield_pct = knob();
  config.block_with_work_pct = knob();
  config.stall_window = rng.NextBounded(4) == 0;
  config.crash_agent = rng.NextBounded(8) == 0;
  if (config.drop_wakeup_pct == 0 && config.drop_new_pct == 0 &&
      config.stale_cpu_pct == 0 && config.remote_pct == 0 &&
      config.idle_commit_pct == 0 && config.conflict_group_pct == 0 &&
      config.never_yield_pct == 0 && config.block_with_work_pct == 0 &&
      !config.stall_window && !config.crash_agent) {
    config.drop_wakeup_pct = 25;  // never generate a well-behaved policy
  }
  return config;
}

std::string RunFuzzCase(const HostileConfig& config, const FuzzSeams& seams,
                        ScheduleOracle* oracle) {
  // Default (non-zero) protocol costs: the fuzzer hunts logic bugs in commit
  // lifetimes and teardown, which need real windows between effect and
  // arrival — injected IPI delays stretch them further.
  SimulationContext machine({.topology = Topology::Make("fuzz", 2, 2, 1, 2)});
  EventLoop& loop = machine.loop();
  loop.set_oracle(oracle);
  Kernel& kernel = machine.kernel();
  machine.ghost_class()->set_test_unguarded_commit_ipis(seams.unguarded_commit_ipis);
  machine.ghost_class()->set_test_leak_teardown_cpu_state(seams.leak_teardown_cpu_state);
  machine.ghost_class()->set_test_deferred_exit_teardown(seams.deferred_exit_teardown);

  Enclave::Config econfig;
  econfig.watchdog_timeout = Milliseconds(2);
  econfig.watchdog_period = Microseconds(250);
  std::unique_ptr<Enclave> enclave =
      machine.CreateEnclave(CpuMask::AllUpTo(4), econfig);

  FaultInjector::Config fconfig;
  fconfig.msg_drop_probability = 0.02;
  fconfig.estale_probability = 0.05;
  fconfig.ipi_delay_probability = 0.25;
  fconfig.ipi_extra_delay = Microseconds(30);
  FaultInjector injector(&loop, &kernel.trace(), config.seed ^ 0x5eedfa17ULL,
                         fconfig);
  kernel.set_fault_injector(&injector);

  AgentProcess process(&kernel, machine.ghost_class(), enclave.get(),
                       std::make_unique<PerCpuFifoPolicy>());
  process.Start();

  constexpr int kWorkers = 6;
  std::vector<Task*> workers;
  for (int i = 0; i < kWorkers; ++i) {
    Task* worker = kernel.CreateTask("w" + std::to_string(i));
    enclave->AddTask(worker);
    workers.push_back(worker);
    RunWorkerCycle(kernel, loop, worker, /*cycles=*/3,
                   Microseconds(80 + 20 * i), Microseconds(50));
    kernel.Wake(worker);
  }

  InvariantChecker::Options copt;
  copt.period = Nanoseconds(777);
  copt.conservation_grace = 0;
  // The watchdog supplies the starvation bound; checker slack on top.
  copt.ghost_starvation_bound = 0;
  InvariantChecker checker(&kernel, copt);
  checker.Watch(enclave.get());
  checker.Start();

  // Swapped-out policies must outlive their in-flight effects.
  std::vector<std::unique_ptr<Policy>> retired;

  // t=0.5ms: hot-swap the hostile policy into the loaded enclave.
  loop.ScheduleAt(Microseconds(500), [&process, &retired, &config] {
    if (process.alive()) {
      retired.push_back(process.SwapPolicy(std::make_unique<HostilePolicy>(config)));
    }
  });
  if (config.stall_window) {
    loop.ScheduleAt(Microseconds(1200), [&process] { process.SetStalled(true); });
    loop.ScheduleAt(Microseconds(1600), [&process] { process.SetStalled(false); });
  }
  // t=1.5ms: shrink one worker's affinity under the hostile policy.
  loop.ScheduleAt(Microseconds(1500), [&kernel, &workers] {
    if (workers[2]->state() != TaskState::kDead) {
      kernel.SetAffinity(workers[2], CpuMask::Single(1));
    }
  });
  // t=2.2ms: yank a thread out of the enclave mid-run.
  injector.At(Microseconds(2200), FaultKind::kRemoveTask, [&enclave, &workers] {
    if (!enclave->destroyed() && workers[1]->state() != TaskState::kDead &&
        workers[1]->ghost_state() != nullptr) {
      enclave->RemoveTask(workers[1]);
    }
  });
  // t=2.5ms: roll the hostile policy back out (the A/B rollback path).
  loop.ScheduleAt(Microseconds(2500), [&process, &retired] {
    if (process.alive()) {
      retired.push_back(process.SwapPolicy(std::make_unique<PerCpuFifoPolicy>()));
    }
  });
  if (config.crash_agent) {
    injector.At(Microseconds(3000), FaultKind::kAgentCrash,
                [&process] { process.Crash(); });
  }
  // t=4.5ms: tear the enclave down mid-load (unless the watchdog already
  // did); commit effects still in flight must die with it.
  injector.At(Microseconds(4500), FaultKind::kEnclaveDestroy, [&enclave] {
    if (!enclave->destroyed()) {
      enclave->Destroy();
    }
  });

  machine.RunFor(Milliseconds(7));
  checker.CheckNow();
  checker.Stop();

  const std::string report = checker.Report();
  if (!report.empty()) {
    return NormalizeViolation(report);
  }
  // Containment predicate: whatever the policy did, every worker must have
  // finished — via ghOSt, the watchdog's CFS fallback, or the teardown.
  for (int i = 0; i < kWorkers; ++i) {
    if (workers[i]->state() != TaskState::kDead) {
      return "fuzz: worker w" + std::to_string(i) +
             " stranded past watchdog and teardown";
    }
  }
  return "";
}

std::string RunFuzzReplay(const HostileConfig& config, const FuzzSeams& seams,
                          const Explorer::ChoiceTrace& trace) {
  Explorer explorer(
      [config, seams](ScheduleOracle* oracle) {
        return RunFuzzCase(config, seams, oracle);
      },
      Explorer::Options());
  return explorer.Replay(trace);
}

namespace {

// Greedy config shrink: zero one knob at a time (fixed order), keep the zero
// iff the violation's first line still reproduces on the same choice trace.
HostileConfig ShrinkConfig(const HostileConfig& config, const FuzzSeams& seams,
                           const Explorer::ChoiceTrace& trace,
                           const std::string& violation, uint64_t* runs) {
  HostileConfig best = config;
  const std::string want = FirstLine(violation);
  int* knobs[] = {&best.drop_wakeup_pct,    &best.drop_new_pct,
                  &best.stale_cpu_pct,      &best.remote_pct,
                  &best.idle_commit_pct,    &best.conflict_group_pct,
                  &best.never_yield_pct,    &best.block_with_work_pct};
  for (int* knob : knobs) {
    if (*knob == 0) {
      continue;
    }
    const int saved = *knob;
    *knob = 0;
    ++*runs;
    if (FirstLine(RunFuzzReplay(best, seams, trace)) != want) {
      *knob = saved;
    }
  }
  bool* flags[] = {&best.stall_window, &best.crash_agent};
  for (bool* flag : flags) {
    if (!*flag) {
      continue;
    }
    *flag = false;
    ++*runs;
    if (FirstLine(RunFuzzReplay(best, seams, trace)) != want) {
      *flag = true;
    }
  }
  return best;
}

}  // namespace

FuzzSweepResult RunFuzzSweep(const FuzzSweepOptions& options) {
  FuzzSweepResult result;
  for (int i = 0; i < options.cases; ++i) {
    const HostileConfig config =
        GenerateHostileConfig(options.base_seed + static_cast<uint64_t>(i));
    Explorer::Options eopt;
    eopt.mode = Explorer::Mode::kRandomWalk;
    eopt.max_schedules = options.schedules_per_case;
    eopt.seed = config.seed;
    eopt.shrink = options.shrink;
    eopt.stop_at_first = true;
    const FuzzSeams seams = options.seams;
    Explorer::ScenarioFactory factory = [config, seams]() -> Explorer::Scenario {
      return [config, seams](ScheduleOracle* oracle) {
        return RunFuzzCase(config, seams, oracle);
      };
    };
    Explorer::Result er =
        options.jobs > 1
            ? Explorer::ExploreParallelWalks(factory, eopt, options.jobs)
            : Explorer(factory(), eopt).Explore();
    ++result.cases_run;
    result.total_schedules += er.schedules;
    if (er.violation_found) {
      FuzzCaseResult fc;
      fc.config = config;
      fc.violation = er.violation;
      fc.trace = er.shrunk_trace;
      fc.schedules = er.schedules + er.shrink_runs;
      uint64_t shrink_runs = 0;
      fc.shrunk = options.shrink
                      ? ShrinkConfig(config, seams, fc.trace, fc.violation,
                                     &shrink_runs)
                      : config;
      fc.schedules += shrink_runs;
      result.violations.push_back(std::move(fc));
      if (options.stop_at_first_case) {
        break;
      }
    }
  }
  return result;
}

bool SaveFuzzReplay(const std::string& path, const FuzzCaseResult& result,
                    const FuzzSeams& seams) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  const HostileConfig& c = result.shrunk;
  out << "# ghost-sim policy-fuzzer replay v1\n";
  out << "seed: " << c.seed << "\n";
  out << "violation: " << FirstLine(result.violation) << "\n";
  out << "knobs: drop_wakeup=" << c.drop_wakeup_pct
      << " drop_new=" << c.drop_new_pct << " stale_cpu=" << c.stale_cpu_pct
      << " remote=" << c.remote_pct << " idle_commit=" << c.idle_commit_pct
      << " conflict_group=" << c.conflict_group_pct
      << " never_yield=" << c.never_yield_pct
      << " block_with_work=" << c.block_with_work_pct
      << " stall=" << (c.stall_window ? 1 : 0)
      << " crash=" << (c.crash_agent ? 1 : 0) << "\n";
  out << "seams: unguarded_commit_ipis=" << (seams.unguarded_commit_ipis ? 1 : 0)
      << " leak_teardown_cpu_state=" << (seams.leak_teardown_cpu_state ? 1 : 0)
      << " deferred_exit_teardown=" << (seams.deferred_exit_teardown ? 1 : 0)
      << "\n";
  out << "choices:";
  for (uint32_t choice : result.trace) {
    out << " " << choice;
  }
  out << "\n";
  return out.good();
}

bool LoadFuzzReplay(const std::string& path, HostileConfig* config,
                    FuzzSeams* seams, Explorer::ChoiceTrace* trace,
                    std::string* violation) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::string line;
  if (!std::getline(in, line) || line != "# ghost-sim policy-fuzzer replay v1") {
    return false;
  }
  *config = HostileConfig();
  *seams = FuzzSeams();
  trace->clear();
  violation->clear();
  auto parse_kv_ints = [](const std::string& body, auto&& assign) {
    std::istringstream fields(body);
    std::string field;
    while (fields >> field) {
      const size_t eq = field.find('=');
      if (eq == std::string::npos) {
        return false;
      }
      assign(field.substr(0, eq), std::stoll(field.substr(eq + 1)));
    }
    return true;
  };
  while (std::getline(in, line)) {
    const size_t colon = line.find(": ");
    std::string key, body;
    if (colon == std::string::npos) {
      // "choices:" with an empty trace has no trailing space.
      if (line == "choices:") {
        continue;
      }
      return false;
    }
    key = line.substr(0, colon);
    body = line.substr(colon + 2);
    if (key == "seed") {
      config->seed = std::stoull(body);
    } else if (key == "violation") {
      *violation = body;
    } else if (key == "knobs") {
      const bool ok = parse_kv_ints(body, [config](const std::string& k, long long v) {
        if (k == "drop_wakeup") config->drop_wakeup_pct = static_cast<int>(v);
        else if (k == "drop_new") config->drop_new_pct = static_cast<int>(v);
        else if (k == "stale_cpu") config->stale_cpu_pct = static_cast<int>(v);
        else if (k == "remote") config->remote_pct = static_cast<int>(v);
        else if (k == "idle_commit") config->idle_commit_pct = static_cast<int>(v);
        else if (k == "conflict_group") config->conflict_group_pct = static_cast<int>(v);
        else if (k == "never_yield") config->never_yield_pct = static_cast<int>(v);
        else if (k == "block_with_work") config->block_with_work_pct = static_cast<int>(v);
        else if (k == "stall") config->stall_window = v != 0;
        else if (k == "crash") config->crash_agent = v != 0;
      });
      if (!ok) {
        return false;
      }
    } else if (key == "seams") {
      const bool ok = parse_kv_ints(body, [seams](const std::string& k, long long v) {
        if (k == "unguarded_commit_ipis") seams->unguarded_commit_ipis = v != 0;
        else if (k == "leak_teardown_cpu_state") seams->leak_teardown_cpu_state = v != 0;
        else if (k == "deferred_exit_teardown") seams->deferred_exit_teardown = v != 0;
      });
      if (!ok) {
        return false;
      }
    } else if (key == "choices") {
      std::istringstream choices(body);
      uint32_t choice;
      while (choices >> choice) {
        trace->push_back(choice);
      }
    } else {
      return false;  // unknown key: refuse to half-load a replay
    }
  }
  return true;
}

}  // namespace gs
