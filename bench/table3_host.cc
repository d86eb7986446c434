// Host-hardware nanobenchmarks of the real shared-memory substrates
// (google-benchmark).
//
// Table 3's operations run on a real Xeon; our reproduction's mechanism runs
// in a simulator, but its shared-memory building blocks — the SPSC message
// ring, the MPMC fast-path ring, the status-word reads — are real lock-free
// code. This binary measures their actual cost on the host, demonstrating
// that the per-operation primitives the cost model assumes (tens to hundreds
// of ns) are achievable with these exact data structures.
#include <benchmark/benchmark.h>

#include "bench/harness.h"
#include "src/base/cpumask.h"
#include "src/base/histogram.h"
#include "src/base/mpmc_ring.h"
#include "src/base/rng.h"
#include "src/base/spsc_ring.h"
#include "src/ghost/message.h"
#include "src/sim/event_loop.h"

namespace gs {
namespace {

void BM_SpscRingPushPop(benchmark::State& state) {
  SpscRing<Message> ring(4096);
  Message msg;
  msg.type = MessageType::kTaskWakeup;
  msg.tid = 42;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.TryPush(msg));
    benchmark::DoNotOptimize(ring.TryPop());
  }
}
BENCHMARK(BM_SpscRingPushPop);

void BM_SpscRingBatchDrain(benchmark::State& state) {
  SpscRing<Message> ring(4096);
  Message msg;
  msg.type = MessageType::kTaskWakeup;
  const int batch = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < batch; ++i) {
      ring.TryPush(msg);
    }
    while (auto m = ring.TryPop()) {
      benchmark::DoNotOptimize(*m);
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SpscRingBatchDrain)->Arg(1)->Arg(10)->Arg(100);

void BM_MpmcRingPushPop(benchmark::State& state) {
  MpmcRing<int64_t> ring(1024);
  int64_t tid = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.TryPush(tid++));
    benchmark::DoNotOptimize(ring.TryPop());
  }
}
BENCHMARK(BM_MpmcRingPushPop);

void BM_HistogramAdd(benchmark::State& state) {
  Histogram hist;
  Rng rng(1);
  for (auto _ : state) {
    hist.Add(static_cast<int64_t>(rng.NextBounded(100'000'000)));
  }
}
BENCHMARK(BM_HistogramAdd);

void BM_CpuMaskScan(benchmark::State& state) {
  CpuMask mask;
  Rng rng(2);
  for (int i = 0; i < 64; ++i) {
    mask.Set(static_cast<int>(rng.NextBounded(256)));
  }
  for (auto _ : state) {
    int count = 0;
    for (int cpu = mask.First(); cpu >= 0; cpu = mask.NextAfter(cpu)) {
      ++count;
    }
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_CpuMaskScan);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  EventLoop loop;
  for (auto _ : state) {
    loop.ScheduleAfter(1, [] {});
    loop.RunOne();
  }
}
BENCHMARK(BM_EventLoopScheduleRun);

void BM_RngNext(benchmark::State& state) {
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.Next());
  }
}
BENCHMARK(BM_RngNext);

// Console output as usual, plus one harness row per benchmark run so the
// nanobench numbers land in the --json results file.
class HarnessReporter : public benchmark::ConsoleReporter {
 public:
  explicit HarnessReporter(bench::Run* run) : run_(run) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) {
        continue;
      }
      bench::Row& row = run_->AddRow();
      row.Set("name", run.benchmark_name())
          .Set("iterations", static_cast<int64_t>(run.iterations))
          .Set("real_time_ns", run.GetAdjustedRealTime())
          .Set("cpu_time_ns", run.GetAdjustedCPUTime());
      for (const auto& [name, counter] : run.counters) {
        row.Set(name, static_cast<double>(counter.value));
      }
    }
  }

 private:
  bench::Run* run_;
};

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  // The harness strips its own flags first; --benchmark_* flags pass
  // through to google-benchmark, whose global registry cannot run multi-seed
  // repetitions in one process.
  gs::bench::Harness harness("table3_host", argc, argv,
                             {.passthrough_prefixes = {"--benchmark_"},
                              .allow_parallel = false});
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  // Host timings take no seed (0 unless --seed); it is only recorded.
  harness.RunAll(0, [](gs::bench::Run& run) {
    gs::HarnessReporter reporter(&run);
    benchmark::RunSpecifiedBenchmarks(&reporter);
  });
  benchmark::Shutdown();
  return harness.Finish();
}
