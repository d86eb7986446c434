#include "perfbench/bench_run.h"

#include <sys/resource.h>

#include <chrono>
#include <optional>
#include <utility>

#include "src/fleet/cluster.h"
#include "src/fleet/machine_sim.h"
#include "src/scenario/scenario.h"

namespace perfbench {
namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Same ms -> ns conversion as the scenario layer, so phase boundaries land
// on the nanosecond MachineSim::RunLocal uses.
gs::Time FromMs(double ms) { return static_cast<gs::Time>(ms * 1e6); }

double TimevalSeconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

int SpanRecorder::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = NowNs();
  spans_.push_back(std::move(span));
  open_.push_back(static_cast<int>(spans_.size()) - 1);
  return open_.back();
}

void SpanRecorder::End(int index) {
  spans_[static_cast<size_t>(index)].end_ns = NowNs();
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    if (top == index) {
      break;
    }
  }
}

double SpanRecorder::Seconds(const std::string& name) const {
  for (const Span& span : spans_) {
    if (span.name == name) {
      return static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
    }
  }
  return 0;
}

bool RunWorkload(const std::string& spec_text, uint64_t seed, int jobs,
                 gs::StatsRegistry* stats, SpanRecorder* spans, RunOutput* out,
                 std::string* error) {
  namespace fleet = gs::fleet;
  namespace scenario = gs::scenario;

  const int root = spans->Begin("bench.run");
  const int setup = spans->Begin("setup");
  int span = spans->Begin("scenario.parse");
  std::optional<scenario::ScenarioSpec> parsed = scenario::ScenarioSpec::Parse(spec_text, error);
  spans->End(span);
  if (!parsed.has_value()) {
    spans->End(setup);
    spans->End(root);
    return false;
  }
  scenario::ScenarioSpec spec = std::move(*parsed);
  spec.seed = seed;
  out->sim_ms = spec.warmup_ms + spec.measure_ms + spec.drain_ms;
  if (stats != nullptr) {
    stats->Enable();
  }

  rusage usage_before{};
  rusage usage_after{};
  if (!spec.fleet.has_value()) {
    span = spans->Begin("fleet.build");
    fleet::MachineSim::Options options;
    options.stats = stats;
    fleet::MachineSim machine(spec, options);
    spans->End(span);
    spans->End(setup);

    getrusage(RUSAGE_SELF, &usage_before);
    const int run = spans->Begin("run");
    const gs::Time warmup_end = FromMs(spec.warmup_ms);
    const gs::Time measure_end = warmup_end + FromMs(spec.measure_ms);
    const gs::Time drain_end = measure_end + FromMs(spec.drain_ms);
    span = spans->Begin("sim.warmup");
    machine.AdvanceUntil(warmup_end);
    spans->End(span);
    span = spans->Begin("sim.measure");
    machine.AdvanceUntil(measure_end);
    spans->End(span);
    span = spans->Begin("sim.drain");
    machine.AdvanceUntil(drain_end);
    spans->End(span);
    span = spans->Begin("verify.finish");
    machine.FinishChecks();
    spans->End(span);
    span = spans->Begin("fleet.collect");
    out->result.name = spec.name;
    out->result.seed = spec.seed;
    machine.CollectLocal(&out->result);
    spans->End(span);
    spans->End(run);
    getrusage(RUSAGE_SELF, &usage_after);
    out->events = static_cast<int64_t>(machine.loop().executed_count());
  } else {
    span = spans->Begin("fleet.build");
    fleet::Cluster cluster(spec, stats, jobs);
    spans->End(span);
    spans->End(setup);

    getrusage(RUSAGE_SELF, &usage_before);
    const int run = spans->Begin("run");
    span = spans->Begin("fleet.run");
    out->result = cluster.Run();
    spans->End(span);
    spans->End(run);
    getrusage(RUSAGE_SELF, &usage_after);
  }
  spans->End(root);

  out->run_user_s = TimevalSeconds(usage_after.ru_utime) - TimevalSeconds(usage_before.ru_utime);
  out->run_sys_s = TimevalSeconds(usage_after.ru_stime) - TimevalSeconds(usage_before.ru_stime);
  return true;
}

}  // namespace perfbench
