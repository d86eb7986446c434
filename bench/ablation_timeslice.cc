// Ablation (§4.2): preemption-timeslice sensitivity of the ghOSt-Shinjuku
// policy on the dispersive workload.
//
// The Shinjuku design's core knob: too large a slice and rare 10 ms requests
// head-of-line-block the 10 µs ones (the CFS-Shinjuku failure mode); too
// small a slice and preemption overhead eats throughput. 30 µs — the paper's
// choice — sits in the flat basin.
#include <cstdio>
#include <vector>

#include "bench/harness.h"
#include "bench/testbeds.h"

constexpr double kLoadKqps = 240;

int main(int argc, char** argv) {
  using namespace gs;
  bench::Harness harness("ablation_timeslice", argc, argv);
  const Duration measure = harness.quick() ? Milliseconds(300) : Milliseconds(900);
  harness.Param("load_kqps", kLoadKqps);
  harness.Param("measure_ms", static_cast<int64_t>(measure / 1000000));
  std::printf("Ablation: ghOSt-Shinjuku preemption timeslice on the dispersive\n"
              "workload (240 kqps; 99.5%% x 10us + 0.5%% x 10ms). The paper uses 30us.\n\n");
  std::printf("%12s %10s %10s %10s %12s\n", "slice_us", "p50_us", "p99_us", "ach_kqps",
              "preemptions");
  harness.RunAll(99, [measure](bench::Run& run) {
    const std::vector<Duration> slices =
        run.quick()
            ? std::vector<Duration>{Microseconds(30), Milliseconds(5), 0}
            : std::vector<Duration>{Microseconds(5),   Microseconds(15), Microseconds(30),
                                    Microseconds(100), Microseconds(500), Milliseconds(5), 0};
    for (Duration slice : slices) {
      uint64_t preemptions = 0;
      const bench::Fig6Result r = bench::RunFig6Ghost(
          run, {.kind = "shinjuku", .timeslice_us = static_cast<double>(slice) / 1e3},
          /*with_batch=*/false, {kLoadKqps, run.seed(), Milliseconds(100), measure},
          [&preemptions](const Policy& policy) {
            preemptions = static_cast<const CentralizedFifoPolicy&>(policy).preemptions();
          });
      if (slice > 0) {
        std::printf("%12lld %10.1f %10.1f %10.1f %12llu\n",
                    static_cast<long long>(slice / 1000), r.p50_us, r.p99_us,
                    r.achieved_kqps, (unsigned long long)preemptions);
      } else {
        std::printf("%12s %10.1f %10.1f %10.1f %12llu   (run-to-completion)\n", "inf",
                    r.p50_us, r.p99_us, r.achieved_kqps,
                    (unsigned long long)preemptions);
      }
      std::fflush(stdout);
      run.AddRow()
          .Set("slice_us", static_cast<int64_t>(slice / 1000))
          .Set("run_to_completion", slice == 0)
          .Set("p50_us", r.p50_us)
          .Set("p99_us", r.p99_us)
          .Set("achieved_kqps", r.achieved_kqps)
          .Set("preemptions", preemptions);
    }
  });
  return harness.Finish();
}
