// Fig 6 reproduction (§4.2): ghOSt vs Shinjuku vs CFS on a dispersive
// RocksDB-style workload.
//
//   6a: 99th-percentile latency vs offered load, no co-location.
//   6b: same with a co-located batch app.
//   6c: the batch app's attained CPU share vs offered load.
//
// Machine: one socket of a 2-socket Xeon E5-2658 (12 cores / 24 CPUs), as in
// the paper. Workload: open-loop Poisson; 99.5% of requests ~10 us (6 us
// RocksDB GET + 4 us processing), 0.5% take 10 ms; 30 us preemption
// timeslice for the preemptive systems.
//
// Expected shape (paper): Shinjuku best; ghOSt-Shinjuku within ~5% of its
// saturation throughput with slightly higher tails at high load;
// CFS-Shinjuku's tail knees ~30% earlier. Under co-location (6c) Shinjuku
// gives the batch app zero CPU while ghOSt matches CFS-like sharing without
// hurting tails (6b).
#include <cstdio>
#include <memory>
#include <set>

#include "bench/harness.h"
#include "bench/machine_trace.h"
#include "src/agent/agent_process.h"
#include "src/baselines/shinjuku_dataplane.h"
#include "src/policies/factory.h"
#include "src/sim/simulation.h"
#include "src/workloads/batch.h"
#include "src/workloads/request_service.h"

namespace gs {
namespace {

constexpr Duration kShort = Microseconds(10);  // 6 us GET + 4 us processing
constexpr Duration kLong = Milliseconds(10);
constexpr double kPLong = 0.005;
constexpr Duration kTimeslice = Microseconds(30);
constexpr int kNumWorkers = 200;
constexpr int kBatchThreads = 10;

// Sweep sizing: --scale=paper is the full Fig 6 sweep; --scale=quick is the
// CI smoke configuration (two load points, shorter windows).
Duration kWarmup = Milliseconds(100);
Duration kMeasure = Milliseconds(900);

// CPU plan on the 24-CPU socket: core 0 (CPUs 0,12) belongs to the load
// generator. The agent/dispatcher takes core 1 (CPUs 1,13); request
// processing gets the remaining 20 hyperthread CPUs.
CpuMask ServerCpus() {
  CpuMask mask;
  for (int cpu = 2; cpu <= 11; ++cpu) {
    mask.Set(cpu);
  }
  for (int cpu = 14; cpu <= 23; ++cpu) {
    mask.Set(cpu);
  }
  return mask;
}

struct Result {
  double offered_kqps = 0;
  double achieved_kqps = 0;
  double p50_us = 0;
  double p99_us = 0;
  double p999_us = 0;
  double batch_share = 0;
};

CostModel Fig6Cost() {
  CostModel cost;
  // The paper's service times were measured end-to-end on the SMT machine;
  // fold SMT effects into the service times rather than double-counting.
  cost.smt_contention_factor = 1.0;
  cost.agent_smt_contention_factor = 1.0;
  return cost;
}

SimulationContext MakeMachine(bench::Run& run) {
  return SimulationContext({.topology = Topology::IntelE5_24(), .cost = Fig6Cost(),
                            .stats = &run.stats()});
}

Result RunGhost(bench::Run& run, double offered_kqps, bool with_batch, uint64_t seed) {
  SimulationContext m = MakeMachine(run);
  bench::ScopedMachineTrace trace_scope(run, m.kernel());
  CpuMask enclave_cpus = ServerCpus();
  enclave_cpus.Set(1);  // global agent home
  auto enclave = m.CreateEnclave(enclave_cpus);

  BatchApp batch(&m.kernel(), {.num_threads = kBatchThreads});
  auto batch_tids = std::make_shared<std::set<int64_t>>();
  // Construct through the factory — the same path the scenario runner uses.
  PolicyConfig config;
  config.kind = with_batch ? "shinjuku_shenango" : "shinjuku";
  config.timeslice_us = static_cast<double>(kTimeslice) / 1e3;
  PolicyEnv env;
  env.default_global_cpu = 1;
  if (with_batch) {
    for (Task* t : batch.threads()) {
      batch_tids->insert(t->tid());
    }
    env.tier_of = [batch_tids](int64_t tid) { return batch_tids->count(tid) ? 1 : 0; };
  }
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(),
                       MakePolicy(config, env));
  process.Start();

  ThreadPoolServer server(&m.kernel(), {.num_workers = kNumWorkers});
  for (Task* worker : server.workers()) {
    enclave->AddTask(worker);
  }
  if (with_batch) {
    for (Task* t : batch.threads()) {
      enclave->AddTask(t);
    }
    batch.Start();
  }

  BimodalServiceModel model(kShort, kLong, kPLong);
  PoissonLoadGen gen(&m.loop(), &model, offered_kqps * 1e3, seed,
                     [&server](Time t, Duration s) { server.Submit(t, s); });
  gen.Start(kWarmup + kMeasure);

  int64_t completed_at_warmup = 0;
  m.loop().ScheduleAt(kWarmup, [&] {
    server.latency().Reset();
    completed_at_warmup = server.completed();
    batch.MarkWindow();
  });
  m.RunFor(kWarmup + kMeasure + Milliseconds(50));

  Result r;
  r.offered_kqps = offered_kqps;
  r.achieved_kqps =
      static_cast<double>(server.completed() - completed_at_warmup) /
      ToSeconds(kMeasure + Milliseconds(50)) / 1e3;
  r.p50_us = server.latency().PercentileUs(50);
  r.p99_us = server.latency().PercentileUs(99);
  r.p999_us = server.latency().PercentileUs(99.9);
  r.batch_share = with_batch
                      ? batch.CpuShare(kWarmup, m.now(), m.kernel().topology().num_cpus())
                      : 0;
  return r;
}

Result RunCfs(bench::Run& run, double offered_kqps, bool with_batch, uint64_t seed) {
  SimulationContext m = MakeMachine(run);
  CpuMask worker_cpus = ServerCpus();
  worker_cpus.Set(1);
  worker_cpus.Set(13);

  ThreadPoolServer server(&m.kernel(), {.num_workers = kNumWorkers});
  for (Task* worker : server.workers()) {
    m.kernel().SetAffinity(worker, worker_cpus);
    m.kernel().SetNice(worker, -20);  // the paper's CFS co-location setup
  }
  BatchApp batch(&m.kernel(), {.num_threads = kBatchThreads});
  if (with_batch) {
    for (Task* t : batch.threads()) {
      m.kernel().SetAffinity(t, worker_cpus);
      m.kernel().SetNice(t, 19);
    }
    batch.Start();
  }

  BimodalServiceModel model(kShort, kLong, kPLong);
  PoissonLoadGen gen(&m.loop(), &model, offered_kqps * 1e3, seed,
                     [&server](Time t, Duration s) { server.Submit(t, s); });
  gen.Start(kWarmup + kMeasure);

  int64_t completed_at_warmup = 0;
  m.loop().ScheduleAt(kWarmup, [&] {
    server.latency().Reset();
    completed_at_warmup = server.completed();
    batch.MarkWindow();
  });
  m.RunFor(kWarmup + kMeasure + Milliseconds(50));

  Result r;
  r.offered_kqps = offered_kqps;
  r.achieved_kqps =
      static_cast<double>(server.completed() - completed_at_warmup) /
      ToSeconds(kMeasure + Milliseconds(50)) / 1e3;
  r.p50_us = server.latency().PercentileUs(50);
  r.p99_us = server.latency().PercentileUs(99);
  r.p999_us = server.latency().PercentileUs(99.9);
  r.batch_share = with_batch
                      ? batch.CpuShare(kWarmup, m.now(), m.kernel().topology().num_cpus())
                      : 0;
  return r;
}

Result RunShinjuku(bench::Run& run, double offered_kqps, bool with_batch, uint64_t seed) {
  SimulationContext m = MakeMachine(run);
  ShinjukuDataplane::Options options;
  const CpuMask workers = ServerCpus();
  for (int cpu = workers.First(); cpu >= 0; cpu = workers.NextAfter(cpu)) {
    options.worker_cpus.push_back(cpu);
  }
  options.dispatcher_cpus = {1, 13};
  options.timeslice = kTimeslice;
  ShinjukuDataplane dataplane(&m.kernel(), m.agent_class(), options);

  BatchApp batch(&m.kernel(), {.num_threads = kBatchThreads});
  if (with_batch) {
    CpuMask batch_cpus = ServerCpus();
    batch_cpus.Set(1);
    batch_cpus.Set(13);
    for (Task* t : batch.threads()) {
      m.kernel().SetAffinity(t, batch_cpus);
      m.kernel().SetNice(t, 19);
    }
    batch.Start();
  }

  BimodalServiceModel model(kShort, kLong, kPLong);
  PoissonLoadGen gen(&m.loop(), &model, offered_kqps * 1e3, seed,
                     [&dataplane](Time t, Duration s) { dataplane.Submit(t, s); });
  gen.Start(kWarmup + kMeasure);

  int64_t completed_at_warmup = 0;
  m.loop().ScheduleAt(kWarmup, [&] {
    dataplane.latency().Reset();
    completed_at_warmup = dataplane.completed();
    batch.MarkWindow();
  });
  m.RunFor(kWarmup + kMeasure + Milliseconds(50));

  Result r;
  r.offered_kqps = offered_kqps;
  r.achieved_kqps =
      static_cast<double>(dataplane.completed() - completed_at_warmup) /
      ToSeconds(kMeasure + Milliseconds(50)) / 1e3;
  r.p50_us = dataplane.latency().PercentileUs(50);
  r.p99_us = dataplane.latency().PercentileUs(99);
  r.p999_us = dataplane.latency().PercentileUs(99.9);
  r.batch_share = with_batch
                      ? batch.CpuShare(kWarmup, m.now(), m.kernel().topology().num_cpus())
                      : 0;
  return r;
}

void PrintHeader(const char* title) {
  std::printf("\n== %s ==\n", title);
  std::printf("%-16s %10s %10s %10s %10s %10s %10s\n", "system", "offer_kqps",
              "ach_kqps", "p50_us", "p99_us", "p99.9_us", "batchshr");
}

void PrintRow(const char* system, const Result& r) {
  std::printf("%-16s %10.0f %10.1f %10.1f %10.1f %10.1f %10.3f\n", system,
              r.offered_kqps, r.achieved_kqps, r.p50_us, r.p99_us, r.p999_us,
              r.batch_share);
  std::fflush(stdout);
}

void Record(bench::Run& run, const char* system, bool with_batch, const Result& r) {
  PrintRow(system, r);
  run.AddRow()
      .Set("system", system)
      .Set("with_batch", with_batch)
      .Set("offered_kqps", r.offered_kqps)
      .Set("achieved_kqps", r.achieved_kqps)
      .Set("p50_us", r.p50_us)
      .Set("p99_us", r.p99_us)
      .Set("p999_us", r.p999_us)
      .Set("batch_share", r.batch_share);
}

void RunSweep(bench::Run& run, bool with_batch) {
  PrintHeader(with_batch ? "Fig 6b/6c: RocksDB co-located with a batch app"
                         : "Fig 6a: tail latency for dispersive loads");
  const std::vector<double> loads =
      run.quick() ? std::vector<double>{25, 100}
                  : std::vector<double>{25, 50, 100, 150, 200, 240, 270, 290, 310};
  for (double load : loads) {
    const uint64_t seed = run.seed() + static_cast<uint64_t>(load);
    Record(run, "shinjuku", with_batch, RunShinjuku(run, load, with_batch, seed));
    Record(run, "ghost-shinjuku", with_batch, RunGhost(run, load, with_batch, seed));
    Record(run, "cfs-shinjuku", with_batch, RunCfs(run, load, with_batch, seed));
  }
}

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  gs::bench::Harness harness("fig6_shinjuku", argc, argv);
  if (harness.quick()) {
    // CI smoke sizing: fewer load points, shorter windows.
    gs::kWarmup = gs::Milliseconds(50);
    gs::kMeasure = gs::Milliseconds(200);
  }
  harness.Param("timeslice_us", static_cast<int64_t>(gs::kTimeslice / 1000));
  harness.Param("num_workers", gs::kNumWorkers);
  harness.Param("batch_threads", gs::kBatchThreads);
  harness.Param("warmup_ms", static_cast<int64_t>(gs::kWarmup / 1000000));
  harness.Param("measure_ms", static_cast<int64_t>(gs::kMeasure / 1000000));

  std::printf("Fig 6 reproduction: Shinjuku-style dispersive workload on 24-CPU socket\n");
  std::printf("workload: 99.5%% x %lld us + 0.5%% x %lld ms, 30 us timeslice, 200 workers\n",
              static_cast<long long>(gs::kShort / 1000),
              static_cast<long long>(gs::kLong / 1000000));
  harness.RunAll(1000, [](gs::bench::Run& run) {
    gs::RunSweep(run, /*with_batch=*/false);
    gs::RunSweep(run, /*with_batch=*/true);
  });
  return harness.Finish();
}
