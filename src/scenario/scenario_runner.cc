#include "src/scenario/scenario_runner.h"

#include <optional>

#include "src/fleet/cluster.h"
#include "src/verify/policy_fuzzer.h"

namespace gs {
namespace scenario {

ScenarioResult RunScenario(const ScenarioSpec& spec, StatsRegistry* stats,
                           int jobs) {
  if (spec.fuzz.has_value()) {
    // Fuzzer scenario: no machine to build — sweep generated hostile
    // policies through the fuzz harness and report the verdict as exact
    // metrics. Always single-job so the golden is byte-identical whatever
    // --jobs the harness runs with.
    FuzzSweepOptions options;
    options.cases = spec.fuzz->cases;
    options.base_seed = spec.fuzz->base_seed;
    options.schedules_per_case = static_cast<uint64_t>(spec.fuzz->schedules_per_case);
    options.jobs = 1;
    const FuzzSweepResult sweep = RunFuzzSweep(options);
    ScenarioResult result;
    result.name = spec.name;
    result.seed = spec.seed;
    result.exact["fuzz_cases"] = sweep.cases_run;
    result.exact["fuzz_schedules"] = static_cast<int64_t>(sweep.total_schedules);
    result.exact["fuzz_violations"] = static_cast<int64_t>(sweep.violations.size());
    result.exact["invariants_ok"] = sweep.violations.empty() ? 1 : 0;
    for (const FuzzCaseResult& v : sweep.violations) {
      result.violations.push_back("seed " + std::to_string(v.config.seed) + ": " +
                                  v.violation);
    }
    return result;
  }
  fleet::Cluster cluster(spec, stats, jobs);
  return cluster.Run();
}

std::string RenderGolden(const ScenarioResult& result) {
  JsonWriter w;
  w.BeginObject();
  w.KV("schema_version", 1);
  w.KV("scenario", result.name);
  w.KV("seed", result.seed);
  w.Key("exact");
  w.BeginObject();
  for (const auto& [key, value] : result.exact) {
    w.KV(key, value);
  }
  w.EndObject();
  w.Key("envelopes");
  w.BeginObject();
  for (const auto& [key, value] : result.envelopes) {
    w.KV(key, value);
  }
  w.EndObject();
  w.EndObject();
  return w.str() + "\n";
}

bool CheckGolden(const ScenarioResult& result, const std::string& golden_json,
                 std::vector<std::string>* failures) {
  const std::string rendered = RenderGolden(result);
  if (rendered == golden_json) {
    return true;
  }
  std::string parse_error;
  const std::optional<JsonValue> golden = JsonValue::Parse(golden_json, &parse_error);
  if (!golden.has_value()) {
    failures->push_back("golden is not valid JSON: " + parse_error);
    return false;
  }
  std::vector<std::string> diff = DiffJson(*golden, *JsonValue::Parse(rendered));
  if (diff.empty()) {
    diff.push_back("same values, different bytes (re-run --update-goldens)");
  }
  failures->insert(failures->end(), diff.begin(), diff.end());
  return false;
}

}  // namespace scenario
}  // namespace gs
