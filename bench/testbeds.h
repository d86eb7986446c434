// The three machines the paper reuses across experiments, one definition
// each. A bench that runs one of them keeps only the variable its figure
// sweeps, plus its rows and printout.
//
//   Fig 5 commit ceiling   fig5_scalability, ablation_group_commit
//   Fig 6 RocksDB socket   fig6_shinjuku, fig_predict (part 1),
//                          ablation_timeslice
//   Fig 8 Search machine   fig8_search, fig_predict (part 2),
//                          ablation_search_placement
//
// Every ghOSt machine here is traced through ScopedMachineTrace, so with
// --trace-out a bench exports its first ghOSt run.
#ifndef GHOST_SIM_BENCH_TESTBEDS_H_
#define GHOST_SIM_BENCH_TESTBEDS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "bench/harness.h"
#include "bench/machine_trace.h"
#include "src/agent/agent_process.h"
#include "src/policies/centralized_fifo.h"
#include "src/policies/factory.h"
#include "src/sim/simulation.h"
#include "src/workloads/batch.h"
#include "src/workloads/request_service.h"
#include "src/workloads/search_workload.h"

namespace gs {
namespace bench {

// ---- Fig 5: the commit ceiling of one global agent -------------------------

inline constexpr Duration kFig5Burst = Microseconds(10);

// Arms one burst; on completion the worker blocks, re-arms, and re-wakes
// 100 ns later, so every burst costs the agent one transaction. The
// chain re-arms itself with no per-cycle heap allocation.
inline void ArmFig5Burst(Kernel* k, Task* t) {
  k->StartBurst(t, kFig5Burst, [k](Task* done) {
    k->Block(done);
    k->loop()->ScheduleAfter(Nanoseconds(100), [k, done] {
      ArmFig5Burst(k, done);
      k->Wake(done);
    });
  });
}

// A centralized FIFO agent built from `options` schedules `workers`
// burst-chain workers on the `cpus` enclave. Returns the transactions it
// commits over `window`, after 50 ms of warmup, in Mtxn/s.
inline double RunFig5Commit(Run& run, const Topology& topology, const CpuMask& cpus,
                            const CentralizedFifoPolicy::Options& options, int workers,
                            Duration window) {
  SimulationContext m({.topology = topology, .stats = &run.stats()});
  ScopedMachineTrace trace_scope(run, m.kernel());
  auto enclave = m.CreateEnclave(cpus);
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(),
                       std::make_unique<CentralizedFifoPolicy>(options));
  process.Start();
  for (int i = 0; i < workers; ++i) {
    Task* task = m.kernel().CreateTask("spin/" + std::to_string(i));
    enclave->AddTask(task);
    ArmFig5Burst(&m.kernel(), task);
    m.kernel().Wake(task);
  }
  m.RunFor(Milliseconds(50));
  const uint64_t before = enclave->txns_committed();
  m.RunFor(window);
  return static_cast<double>(enclave->txns_committed() - before) / ToSeconds(window) / 1e6;
}

// ---- Fig 6: the RocksDB socket ---------------------------------------------
//
// One socket of a 2-socket Xeon E5-2658 (12 cores / 24 CPUs). Core 0 (CPUs
// 0, 12) belongs to the load generator, core 1 (CPUs 1, 13) to the agent or
// dispatcher, and the other 20 hyperthreads serve requests. The load is
// open-loop Poisson: 99.5% of requests take 10 us (6 us RocksDB GET + 4 us
// processing) and 0.5% take 10 ms.

inline constexpr int kFig6Workers = 200;
inline constexpr int kFig6BatchThreads = 10;
inline constexpr Duration kFig6Short = Microseconds(10);
inline constexpr Duration kFig6Long = Milliseconds(10);
inline constexpr double kFig6PLong = 0.005;

inline CpuMask Fig6ServerCpus() {
  CpuMask mask;
  for (int cpu = 2; cpu <= 11; ++cpu) {
    mask.Set(cpu);
  }
  for (int cpu = 14; cpu <= 23; ++cpu) {
    mask.Set(cpu);
  }
  return mask;
}

inline SimulationContext Fig6Machine(Run& run) {
  CostModel cost;
  // The paper's service times were measured end-to-end on the SMT machine;
  // fold SMT effects into the service times rather than double-counting.
  cost.smt_contention_factor = 1.0;
  cost.agent_smt_contention_factor = 1.0;
  return SimulationContext(
      {.topology = Topology::IntelE5_24(), .cost = cost, .stats = &run.stats()});
}

// One load point: its offered rate, the load generator's seed, and the
// windows. Latency and throughput count from the end of `warmup`.
struct Fig6Load {
  double offered_kqps = 0;
  uint64_t seed = 0;
  Duration warmup = 0;
  Duration measure = 0;
};

struct Fig6Result {
  double offered_kqps = 0;
  double achieved_kqps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double batch_share = 0;  // 0 without a batch app
};

// Offers `load` to `server` (a ThreadPoolServer or ShinjukuDataplane) until
// the end of its measure window, resets the latency record and `batch`'s
// (may be null) window at the end of warmup, and runs a 50 ms drain.
// achieved_kqps divides the window's completions by measure + drain.
template <typename Server>
Fig6Result Fig6LoadAndMeasure(SimulationContext& m, Server& server, BatchApp* batch,
                              const Fig6Load& load) {
  BimodalServiceModel model(kFig6Short, kFig6Long, kFig6PLong);
  PoissonLoadGen gen(&m.loop(), &model, load.offered_kqps * 1e3, load.seed,
                     [&server](Time t, Duration s) { server.Submit(t, s); });
  gen.Start(load.warmup + load.measure);

  int64_t completed_at_warmup = 0;
  m.loop().ScheduleAt(load.warmup, [&] {
    server.latency().Reset();
    completed_at_warmup = server.completed();
    if (batch != nullptr) {
      batch->MarkWindow();
    }
  });
  const Duration drain = Milliseconds(50);
  m.RunFor(load.warmup + load.measure + drain);

  Fig6Result r;
  r.offered_kqps = load.offered_kqps;
  r.achieved_kqps = static_cast<double>(server.completed() - completed_at_warmup) /
                    ToSeconds(load.measure + drain) / 1e3;
  r.p50_us = server.latency().PercentileUs(50);
  r.p99_us = server.latency().PercentileUs(99);
  r.p999_us = server.latency().PercentileUs(99.9);
  if (batch != nullptr) {
    r.batch_share = batch->CpuShare(load.warmup, m.now(), m.kernel().topology().num_cpus());
  }
  return r;
}

// The ghOSt arm: the factory builds `config` with its agent on CPU 1 by
// default, and the enclave holds the 200 workers on the serving
// hyperthreads plus CPU 1. With `with_batch` a batch app of 10 threads runs
// in the enclave as tier 1. `after_run` (may be null) sees the policy after
// the run, before teardown.
inline Fig6Result RunFig6Ghost(Run& run, const PolicyConfig& config, bool with_batch,
                               const Fig6Load& load,
                               const std::function<void(const Policy&)>& after_run = nullptr) {
  SimulationContext m = Fig6Machine(run);
  ScopedMachineTrace trace_scope(run, m.kernel());
  CpuMask enclave_cpus = Fig6ServerCpus();
  enclave_cpus.Set(1);  // global agent home
  auto enclave = m.CreateEnclave(enclave_cpus);

  PolicyEnv env;
  env.default_global_cpu = 1;
  std::unique_ptr<BatchApp> batch;
  if (with_batch) {
    batch = std::make_unique<BatchApp>(&m.kernel(),
                                       BatchApp::Options{.num_threads = kFig6BatchThreads});
    auto batch_tids = std::make_shared<std::set<int64_t>>();
    for (Task* t : batch->threads()) {
      batch_tids->insert(t->tid());
    }
    env.tier_of = [batch_tids](int64_t tid) { return batch_tids->count(tid) ? 1 : 0; };
  }
  std::unique_ptr<Policy> policy = MakePolicy(config, env);
  const Policy& policy_ref = *policy;
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(), std::move(policy));
  process.Start();

  ThreadPoolServer server(&m.kernel(), {.num_workers = kFig6Workers});
  for (Task* worker : server.workers()) {
    enclave->AddTask(worker);
  }
  if (batch != nullptr) {
    for (Task* t : batch->threads()) {
      enclave->AddTask(t);
    }
    batch->Start();
  }
  const Fig6Result r = Fig6LoadAndMeasure(m, server, batch.get(), load);
  if (after_run) {
    after_run(policy_ref);
  }
  return r;
}

// ---- Fig 8: the Search machine ---------------------------------------------

// Runs SearchWorkload on a 256-CPU AMD Rome with cache warmth for `length`,
// plus 200 ms for in-flight queries to finish. A null `policy` leaves the
// workload on CFS and builds no enclave; otherwise the policy's agent
// schedules an enclave of every CPU. `read` sees the workload before
// teardown.
inline void RunFig8Search(Run& run, std::unique_ptr<Policy> policy, Duration length,
                          uint64_t seed, const std::function<void(SearchWorkload&)>& read) {
  SimulationContext m({.topology = Topology::AmdRome256(),
                       .cost = CostModel().WithCacheWarmth(),
                       .stats = &run.stats()});
  std::optional<ScopedMachineTrace> trace_scope;
  std::unique_ptr<Enclave> enclave;
  std::unique_ptr<AgentProcess> process;
  if (policy != nullptr) {
    trace_scope.emplace(run, m.kernel());
    enclave = m.CreateEnclave(m.kernel().topology().AllCpus());
    process = m.CreateAgentProcess(enclave.get(), std::move(policy));
    process->Start();
  }
  SearchWorkload workload(&m.kernel(), {.seed = seed});
  if (enclave != nullptr) {
    for (Task* worker : workload.workers()) {
      enclave->AddTask(worker);
    }
  }
  workload.Start(length);
  m.RunFor(length + Milliseconds(200));
  read(workload);
}

}  // namespace bench
}  // namespace gs

#endif  // GHOST_SIM_BENCH_TESTBEDS_H_
