// Self-tests of the benchmark's own use of the program: its workload specs
// are valid scenario documents, its phase-stepped run gives the result the
// program's own RunLocal gives, and the fleet workload's outputs do not
// depend on the number of jobs.
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "perfbench/bench_run.h"
#include "src/fleet/machine_sim.h"
#include "src/scenario/scenario.h"

namespace {

using gs::scenario::ScenarioResult;
using gs::scenario::ScenarioSpec;

std::string ReadSpec(const std::string& workload) {
  std::ifstream in(std::string(PERFBENCH_DIR) + "/workloads/" + workload + ".json");
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

void ExpectSameResult(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.exact, b.exact);
  EXPECT_EQ(a.envelopes, b.envelopes);  // bit-exact doubles
  EXPECT_EQ(a.violations, b.violations);
}

TEST(PerfbenchSpecTest, EveryWorkloadParsesStrictlyAndRoundTrips) {
  for (const char* workload : {"global_agent", "cfs_pool", "fleet_rpc"}) {
    SCOPED_TRACE(workload);
    std::string error;
    const std::optional<ScenarioSpec> spec = ScenarioSpec::Parse(ReadSpec(workload), &error);
    ASSERT_TRUE(spec.has_value()) << error;
    EXPECT_EQ(spec->name, workload);
    const std::string rendered = spec->ToJson();
    const std::optional<ScenarioSpec> again = ScenarioSpec::Parse(rendered, &error);
    ASSERT_TRUE(again.has_value()) << error;
    EXPECT_EQ(again->ToJson(), rendered);
  }
}

TEST(PerfbenchRunTest, PhaseSteppingMatchesRunLocal) {
  for (const char* workload : {"global_agent", "cfs_pool"}) {
    SCOPED_TRACE(workload);
    const std::string text = ReadSpec(workload);
    std::string error;
    std::optional<ScenarioSpec> spec = ScenarioSpec::Parse(text, &error);
    ASSERT_TRUE(spec.has_value()) << error;
    spec->seed = 7;
    gs::fleet::MachineSim machine(*spec, gs::fleet::MachineSim::Options());
    machine.RunLocal();
    ScenarioResult local;
    machine.CollectLocal(&local);

    perfbench::SpanRecorder spans;
    perfbench::RunOutput stepped;
    ASSERT_TRUE(perfbench::RunWorkload(text, 7, 1, nullptr, &spans, &stepped, &error)) << error;
    ExpectSameResult(stepped.result, local);
    EXPECT_GT(stepped.events, 0);
    for (const char* phase : {"sim.warmup", "sim.measure", "sim.drain", "verify.finish"}) {
      EXPECT_GT(spans.Seconds(phase), 0) << phase;
    }
  }
}

TEST(PerfbenchRunTest, FleetOutputsMatchAtOneAndTwoJobs) {
  const std::string text = ReadSpec("fleet_rpc");
  std::string error;
  perfbench::SpanRecorder spans_one;
  perfbench::SpanRecorder spans_two;
  perfbench::RunOutput one;
  perfbench::RunOutput two;
  ASSERT_TRUE(perfbench::RunWorkload(text, 42, 1, nullptr, &spans_one, &one, &error)) << error;
  ASSERT_TRUE(perfbench::RunWorkload(text, 42, 2, nullptr, &spans_two, &two, &error)) << error;
  ExpectSameResult(one.result, two.result);
  EXPECT_GT(one.result.exact.at("completed"), 0);
}

}  // namespace
