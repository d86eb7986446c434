// One benchmark run of one workload: spec text in, ScenarioResult and host
// timings out.
//
// The benchmark reaches the simulator only through the scenario layer —
// ScenarioSpec parsing, fleet::MachineSim for one machine, fleet::Cluster
// for a fleet, the collected ScenarioResult — plus an optional
// StatsRegistry for the traced run. Spans are recorded around each of those
// calls, so host time is attributed to the layer the call enters.
#ifndef GHOST_SIM_PERFBENCH_BENCH_RUN_H_
#define GHOST_SIM_PERFBENCH_BENCH_RUN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/scenario/scenario_runner.h"
#include "src/stats/stats.h"

namespace perfbench {

// Host-time interval around one call into the simulator. Times are
// CLOCK_MONOTONIC nanoseconds, so spans from separate processes on one host
// share a timeline.
struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index of the enclosing span; -1 for the root
};

class SpanRecorder {
 public:
  // Opens a span nested in the innermost open one; returns its index.
  int Begin(const char* name);
  void End(int index);

  const std::vector<Span>& spans() const { return spans_; }
  // Duration of the first span called `name`, in seconds; 0 if absent.
  double Seconds(const std::string& name) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

struct RunOutput {
  gs::scenario::ScenarioResult result;
  // Simulated horizon: warm-up + measure + drain, from the spec.
  double sim_ms = 0;
  // Events executed by the machine's loop; -1 for a fleet, whose machines
  // the benchmark does not see.
  int64_t events = -1;
  // Process CPU time over the run span (all threads).
  double run_user_s = 0;
  double run_sys_s = 0;
};

// Parses `spec_text` strictly, replaces its seed, builds a fleet::MachineSim
// (spec without a fleet block) or a fleet::Cluster, simulates the spec's
// whole horizon and collects the result. A MachineSim is stepped phase by
// phase (warm-up, measure, drain) so each phase gets its own span. The
// "setup" span covers parsing and building, up to the first simulated event;
// the "run" span covers the first simulated event to the collected result.
// `stats` may be null (stats off); otherwise it is enabled and handed to the
// program. `jobs` is the fleet's per-epoch parallelism. Returns false with
// `*error` set when the spec does not parse.
bool RunWorkload(const std::string& spec_text, uint64_t seed, int jobs,
                 gs::StatsRegistry* stats, SpanRecorder* spans, RunOutput* out,
                 std::string* error);

}  // namespace perfbench

#endif  // GHOST_SIM_PERFBENCH_BENCH_RUN_H_
