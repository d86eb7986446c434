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
#include <vector>

#include "bench/harness.h"
#include "bench/testbeds.h"
#include "src/baselines/shinjuku_dataplane.h"

namespace gs {
namespace {

constexpr Duration kTimeslice = Microseconds(30);

// Sweep sizing: --scale=paper is the full Fig 6 sweep; --scale=quick is the
// CI smoke configuration (two load points, shorter windows).
Duration kWarmup = Milliseconds(100);
Duration kMeasure = Milliseconds(900);

using bench::Fig6Load;
using bench::Fig6Result;

// The serving hyperthreads plus core 1: the CPUs of the CFS arm's workers
// and of the CFS and Shinjuku arms' batch app.
CpuMask CfsCpus() {
  CpuMask cpus = bench::Fig6ServerCpus();
  cpus.Set(1);
  cpus.Set(13);
  return cpus;
}

// The batch app of the CFS and Shinjuku arms: nice 19 on CfsCpus().
std::unique_ptr<BatchApp> StartNiceBatch(SimulationContext& m) {
  auto batch = std::make_unique<BatchApp>(
      &m.kernel(), BatchApp::Options{.num_threads = bench::kFig6BatchThreads});
  for (Task* t : batch->threads()) {
    m.kernel().SetAffinity(t, CfsCpus());
    m.kernel().SetNice(t, 19);
  }
  batch->Start();
  return batch;
}

Fig6Result RunCfs(bench::Run& run, bool with_batch, const Fig6Load& load) {
  SimulationContext m = bench::Fig6Machine(run);
  ThreadPoolServer server(&m.kernel(), {.num_workers = bench::kFig6Workers});
  for (Task* worker : server.workers()) {
    m.kernel().SetAffinity(worker, CfsCpus());
    m.kernel().SetNice(worker, -20);  // the paper's CFS co-location setup
  }
  std::unique_ptr<BatchApp> batch = with_batch ? StartNiceBatch(m) : nullptr;
  return bench::Fig6LoadAndMeasure(m, server, batch.get(), load);
}

Fig6Result RunShinjuku(bench::Run& run, bool with_batch, const Fig6Load& load) {
  SimulationContext m = bench::Fig6Machine(run);
  ShinjukuDataplane::Options options;
  const CpuMask workers = bench::Fig6ServerCpus();
  for (int cpu = workers.First(); cpu >= 0; cpu = workers.NextAfter(cpu)) {
    options.worker_cpus.push_back(cpu);
  }
  options.dispatcher_cpus = {1, 13};
  options.timeslice = kTimeslice;
  ShinjukuDataplane dataplane(&m.kernel(), m.agent_class(), options);
  std::unique_ptr<BatchApp> batch = with_batch ? StartNiceBatch(m) : nullptr;
  return bench::Fig6LoadAndMeasure(m, dataplane, batch.get(), load);
}

void PrintHeader(const char* title) {
  std::printf("\n== %s ==\n", title);
  std::printf("%-16s %10s %10s %10s %10s %10s %10s\n", "system", "offer_kqps",
              "ach_kqps", "p50_us", "p99_us", "p99.9_us", "batchshr");
}

void PrintRow(const char* system, const Fig6Result& r) {
  std::printf("%-16s %10.0f %10.1f %10.1f %10.1f %10.1f %10.3f\n", system,
              r.offered_kqps, r.achieved_kqps, r.p50_us, r.p99_us, r.p999_us,
              r.batch_share);
  std::fflush(stdout);
}

void Record(bench::Run& run, const char* system, bool with_batch, const Fig6Result& r) {
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
  PolicyConfig ghost;
  ghost.kind = with_batch ? "shinjuku_shenango" : "shinjuku";
  ghost.timeslice_us = static_cast<double>(kTimeslice) / 1e3;
  for (double load : loads) {
    const Fig6Load point{load, run.seed() + static_cast<uint64_t>(load), kWarmup, kMeasure};
    Record(run, "shinjuku", with_batch, RunShinjuku(run, with_batch, point));
    Record(run, "ghost-shinjuku", with_batch,
           bench::RunFig6Ghost(run, ghost, with_batch, point));
    Record(run, "cfs-shinjuku", with_batch, RunCfs(run, with_batch, point));
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
  harness.Param("num_workers", gs::bench::kFig6Workers);
  harness.Param("batch_threads", gs::bench::kFig6BatchThreads);
  harness.Param("warmup_ms", static_cast<int64_t>(gs::kWarmup / 1000000));
  harness.Param("measure_ms", static_cast<int64_t>(gs::kMeasure / 1000000));

  std::printf("Fig 6 reproduction: Shinjuku-style dispersive workload on 24-CPU socket\n");
  std::printf("workload: 99.5%% x %lld us + 0.5%% x %lld ms, 30 us timeslice, 200 workers\n",
              static_cast<long long>(gs::bench::kFig6Short / 1000),
              static_cast<long long>(gs::bench::kFig6Long / 1000000));
  harness.RunAll(1000, [](gs::bench::Run& run) {
    gs::RunSweep(run, /*with_batch=*/false);
    gs::RunSweep(run, /*with_batch=*/true);
  });
  return harness.Finish();
}
