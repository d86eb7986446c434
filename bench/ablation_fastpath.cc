// Ablation (§3.2, §5): the BPF fast path.
//
// "The global agent scheduling loop in §4.4 takes 30 µs, creating potential
// scheduling gaps. Indeed, some of the threads in our system run for only
// 5-30 µs before they block, leaving CPUs idle during these gaps. We can
// mitigate these scheduling gaps using an integrated BPF program."
//
// Setup: a deliberately heavyweight global agent (30 µs added per loop
// iteration) schedules short (15 µs) requests. With the fast path, idle CPUs
// pull published threads from the shared ring at pick_next_task instead of
// waiting out the agent's loop. Expect a large p99 reduction and most
// dispatches served by the fast path.
#include <cstdio>
#include <memory>

#include "bench/harness.h"
#include "bench/machine_trace.h"
#include "src/agent/agent_process.h"
#include "src/policies/centralized_fifo.h"
#include "src/sim/simulation.h"
#include "src/workloads/request_service.h"

namespace gs {
namespace {

constexpr Duration kService = Microseconds(15);
constexpr Duration kSlowLoop = Microseconds(30);
constexpr double kLoadKqps = 300;  // over 7 worker CPUs: ~64% utilization
constexpr Duration kWarmup = Milliseconds(100);
Duration kMeasure = Milliseconds(900);

struct Result {
  double p50_us = 0;
  double p99_us = 0;
  double achieved_kqps = 0;
  uint64_t fastpath_picks = 0;
  uint64_t agent_schedules = 0;
};

Result Run(bench::Run& run, bool use_fastpath, uint64_t seed) {
  SimulationContext m({.topology = Topology::Make("small-8", 1, 8, 1, 8), .stats = &run.stats()});
  bench::ScopedMachineTrace trace_scope(run, m.kernel());
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(8));
  CentralizedFifoPolicy::Options options;
  options.global_cpu = 0;
  options.extra_loop_cost = kSlowLoop;
  options.use_fastpath = use_fastpath;
  auto policy = std::make_unique<CentralizedFifoPolicy>(options);
  CentralizedFifoPolicy* policy_ptr = policy.get();
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(), std::move(policy));
  process.Start();

  ThreadPoolServer server(&m.kernel(), {.num_workers = 64});
  for (Task* worker : server.workers()) {
    enclave->AddTask(worker);
  }
  FixedServiceModel model(kService);
  PoissonLoadGen gen(&m.loop(), &model, kLoadKqps * 1e3, seed,
                     [&server](Time t, Duration s) { server.Submit(t, s); });
  gen.Start(kWarmup + kMeasure);
  int64_t at_warmup = 0;
  m.loop().ScheduleAt(kWarmup, [&] {
    server.latency().Reset();
    at_warmup = server.completed();
  });
  m.RunFor(kWarmup + kMeasure + Milliseconds(20));

  Result r;
  r.p50_us = server.latency().PercentileUs(50);
  r.p99_us = server.latency().PercentileUs(99);
  r.achieved_kqps =
      static_cast<double>(server.completed() - at_warmup) / ToSeconds(kMeasure) / 1e3;
  r.fastpath_picks = m.ghost_class()->fastpath_picks();
  r.agent_schedules = policy_ptr->scheduled();
  return r;
}

void Record(bench::Run& run, const char* fastpath, const Result& r) {
  run.AddRow()
      .Set("fastpath", fastpath)
      .Set("p50_us", r.p50_us)
      .Set("p99_us", r.p99_us)
      .Set("achieved_kqps", r.achieved_kqps)
      .Set("fastpath_picks", r.fastpath_picks)
      .Set("agent_txns", r.agent_schedules);
}

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  using namespace gs;
  bench::Harness harness("ablation_fastpath", argc, argv);
  if (harness.quick()) {
    kMeasure = Milliseconds(300);
  }
  harness.Param("service_us", static_cast<int64_t>(kService / 1000));
  harness.Param("slow_loop_us", static_cast<int64_t>(kSlowLoop / 1000));
  harness.Param("load_kqps", kLoadKqps);
  harness.Param("measure_ms", static_cast<int64_t>(kMeasure / 1000000));
  std::printf("Ablation: BPF-analog fast path closing agent-loop scheduling gaps.\n"
              "8 CPUs, slow (30us/loop) global agent, 15us requests at %.0fk req/s.\n\n",
              kLoadKqps);
  harness.RunAll(7, [](bench::Run& run) {
    const Result off = Run(run, false, run.seed());
    const Result on = Run(run, true, run.seed());
    std::printf("%-14s %10s %10s %10s %14s %12s\n", "fastpath", "p50_us", "p99_us",
                "ach_kqps", "fastpath_picks", "agent_txns");
    std::printf("%-14s %10.1f %10.1f %10.1f %14llu %12llu\n", "off", off.p50_us,
                off.p99_us, off.achieved_kqps, (unsigned long long)off.fastpath_picks,
                (unsigned long long)off.agent_schedules);
    std::printf("%-14s %10.1f %10.1f %10.1f %14llu %12llu\n", "on", on.p50_us, on.p99_us,
                on.achieved_kqps, (unsigned long long)on.fastpath_picks,
                (unsigned long long)on.agent_schedules);
    Record(run, "off", off);
    Record(run, "on", on);
    run.Metric("p99_reduction_pct", 100.0 * (1.0 - on.p99_us / off.p99_us));
    std::printf("\np99 reduction: %.1f%%\n", 100.0 * (1.0 - on.p99_us / off.p99_us));
  });
  return harness.Finish();
}
