// Predictive policy family vs probe-based baselines (ROADMAP item 4).
//
// Part 1 — Fig 6 workload (dispersive RocksDB bimodal, 24-CPU socket):
//   ghost-shinjuku (30 us probe rotation) vs predictive-shinjuku (per-tid
//   Markov service prediction, long lane + backstop, no probe). The
//   acceptance metric is tail latency: predictive-shinjuku must beat the
//   probe baseline's P99.9 at one or more load points because it (a) fills
//   idle CPUs before preempting and (b) never burns preemptions on
//   predicted-shorts.
//
// Part 2 — Fig 8 workload (Google Search on 256-CPU AMD Rome):
//   search vs predictive-search. The predictive variant feeds a per-tid
//   wakeup-affinity predictor into placement as a CCX hint, pulling
//   threads back to the CCX their history says is warm.
//
// Every ghOSt policy here is constructed through the factory (MakePolicy),
// the same single construction path the scenario runner uses — the bench
// differs from a scenario only in workload wiring.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/harness.h"
#include "bench/testbeds.h"
#include "src/policies/predictive_shinjuku.h"
#include "src/policies/search.h"

namespace gs {
namespace {

Duration kWarmup = Milliseconds(100);
Duration kMeasure = Milliseconds(900);
Duration kSearchRun = Seconds(30);

// ---------------------------------------------------------------------------
// Part 1: Fig 6 bimodal request workload, probe vs predictive Shinjuku.

void RecordFig6(bench::Run& run, const char* system, const bench::Fig6Result& r) {
  std::printf("%-20s %10.0f %10.1f %10.1f %10.1f %10.1f\n", system,
              r.offered_kqps, r.achieved_kqps, r.p50_us, r.p99_us, r.p999_us);
  std::fflush(stdout);
  run.AddRow()
      .Set("part", "fig6")
      .Set("system", system)
      .Set("offered_kqps", r.offered_kqps)
      .Set("achieved_kqps", r.achieved_kqps)
      .Set("p50_us", r.p50_us)
      .Set("p99_us", r.p99_us)
      .Set("p999_us", r.p999_us);
}

void RunShinjukuSweep(bench::Run& run) {
  std::printf("\n== probe vs predictive Shinjuku (Fig 6 workload) ==\n");
  std::printf("%-20s %10s %10s %10s %10s %10s\n", "system", "offer_kqps",
              "ach_kqps", "p50_us", "p99_us", "p99.9_us");
  const std::vector<double> loads =
      run.quick() ? std::vector<double>{25, 100}
                  : std::vector<double>{25, 50, 100, 150, 200, 240, 270};
  int win_points = 0;
  double best_ratio = 0;  // probe_p999 / predictive_p999, >1 = win
  for (double load : loads) {
    const bench::Fig6Load point{load, run.seed() + static_cast<uint64_t>(load), kWarmup,
                                kMeasure};
    const std::string sfx = "{load=" + std::to_string(static_cast<int>(load)) + "}";

    PolicyConfig probe_spec;
    probe_spec.kind = "shinjuku";
    probe_spec.timeslice_us = 30;
    const bench::Fig6Result probe = bench::RunFig6Ghost(
        run, probe_spec, /*with_batch=*/false, point, [&](const Policy& policy) {
          // Probe baseline's preemption count, for the "probe burns
          // preemptions on longs" comparison.
          const auto& p = static_cast<const CentralizedFifoPolicy&>(policy);
          run.Metric("preemptions_probe" + sfx,
                     static_cast<int64_t>(p.preemptions()));
        });
    RecordFig6(run, "ghost-shinjuku", probe);

    PolicyConfig pred_spec;
    pred_spec.kind = "predictive_shinjuku";
    pred_spec.timeslice_us = 30;
    pred_spec.long_threshold_us = 100;
    pred_spec.backstop_multiplier = 4;
    const bench::Fig6Result pred = bench::RunFig6Ghost(
        run, pred_spec, /*with_batch=*/false, point, [&](const Policy& policy) {
          const auto& p = static_cast<const PredictiveShinjukuPolicy&>(policy);
          run.Metric("predicted_short" + sfx,
                     static_cast<int64_t>(p.predicted_short()));
          run.Metric("predicted_long" + sfx,
                     static_cast<int64_t>(p.predicted_long()));
          run.Metric("backstop_demotions" + sfx,
                     static_cast<int64_t>(p.backstop_demotions()));
          run.Metric("preemptions_predictive" + sfx,
                     static_cast<int64_t>(p.preemptions()));
        });
    RecordFig6(run, "predictive-shinjuku", pred);

    const double ratio = pred.p999_us > 0 ? probe.p999_us / pred.p999_us : 0;
    if (pred.p999_us < probe.p999_us) {
      ++win_points;
    }
    best_ratio = std::max(best_ratio, ratio);
    run.Metric("p999_ratio{load=" + std::to_string(static_cast<int>(load)) + "}",
               ratio);
  }
  // The acceptance gate: predictive must beat probe P99.9 somewhere.
  run.Metric("p999_win_points", static_cast<int64_t>(win_points));
  run.Metric("best_p999_ratio", best_ratio);
  std::printf("p99.9 win points: %d/%zu (best probe/predictive ratio %.2f)\n",
              win_points, loads.size(), best_ratio);
}

// ---------------------------------------------------------------------------
// Part 2: Fig 8 Search workload, baseline vs predictive placement.

double RunSearch(bench::Run& run, bool predictive, uint64_t seed,
                 const char* system) {
  PolicyConfig spec;
  spec.kind = predictive ? "predictive_search" : "search";
  spec.global_cpu = 0;
  std::unique_ptr<Policy> policy = MakePolicy(spec, PolicyEnv());
  const auto* search = static_cast<const SearchPolicy*>(policy.get());
  double mean_p99 = 0;
  bench::RunFig8Search(run, std::move(policy), kSearchRun, seed, [&](SearchWorkload& workload) {
    static const char* kNames[3] = {"A", "B", "C"};
    for (int type = 0; type < 3; ++type) {
      auto q = static_cast<SearchWorkload::QueryType>(type);
      const double p99 = workload.latency(q).PercentileUs(99);
      const double qps =
          static_cast<double>(workload.completed(q)) / ToSeconds(kSearchRun);
      mean_p99 += p99 / 3.0;
      run.AddRow()
          .Set("part", "fig8")
          .Set("system", system)
          .Set("query_type", kNames[type])
          .Set("total_qps", qps)
          .Set("overall_p99_us", p99);
      std::printf("%-20s type %s: %8.0f qps, p99 %8.0f us\n", system, kNames[type],
                  qps, p99);
    }
    run.Metric(std::string("hint_hits{") + system + "}",
               static_cast<int64_t>(search->hint_hits()));
    run.Metric(std::string("warmth_deferred{") + system + "}",
               static_cast<int64_t>(search->deferred_for_warmth()));
  });
  std::fflush(stdout);
  return mean_p99;
}

void RunSearchComparison(bench::Run& run) {
  std::printf("\n== search vs predictive-search (Fig 8 workload, %lld s) ==\n",
              static_cast<long long>(kSearchRun / 1000000000));
  const double base = RunSearch(run, /*predictive=*/false, run.seed(), "search");
  const double pred =
      RunSearch(run, /*predictive=*/true, run.seed(), "predictive-search");
  run.Metric("search_mean_p99_us", base);
  run.Metric("predictive_search_mean_p99_us", pred);
  std::printf("mean p99 across query types: search %.0f us, predictive %.0f us\n",
              base, pred);
}

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  gs::bench::Harness harness("fig_predict", argc, argv);
  if (harness.quick()) {
    gs::kWarmup = gs::Milliseconds(50);
    gs::kMeasure = gs::Milliseconds(200);
    gs::kSearchRun = gs::Seconds(3);
  }
  harness.Param("num_workers", gs::bench::kFig6Workers);
  harness.Param("warmup_ms", static_cast<int64_t>(gs::kWarmup / 1000000));
  harness.Param("measure_ms", static_cast<int64_t>(gs::kMeasure / 1000000));
  harness.Param("search_run_s", static_cast<int64_t>(gs::kSearchRun / 1000000000));

  std::printf("Predictive policies vs probe baselines.\n"
              "Part 1: Fig 6 bimodal (99.5%% x 10 us + 0.5%% x 10 ms).\n"
              "Part 2: Fig 8 Search placement with wakeup-affinity hints.\n");
  harness.RunAll(42, [](gs::bench::Run& run) {
    gs::RunShinjukuSweep(run);
    gs::RunSearchComparison(run);
  });
  return harness.Finish();
}
