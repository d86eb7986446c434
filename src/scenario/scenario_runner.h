// Executes a ScenarioSpec: spec -> fleet::Cluster -> ScenarioResult, plus the
// golden rendering and checking used by the regression suite. The cluster is
// the only execution engine: a spec without a `fleet` block is the
// degenerate one-node cluster (the historical single-machine run).
//
// A ScenarioResult splits its observations into two golden sections:
//
//  * `exact` — integer facts (request counts, fault injections, invariant
//    verdicts, enclave teardown);
//  * `envelopes` — latency/throughput style doubles, as JsonWriter renders
//    them.
//
// Both are checked exactly: a golden is the rendered result, and it passes
// only when a fresh render equals it byte for byte. The simulation is
// deterministic for a fixed seed, so any drift is a behaviour change to sign
// off on; `--update-goldens` re-records and lists every moved key old → new.
// Rendering is deterministic (JsonWriter, sorted std::map iteration), so
// `--update-goldens` twice in a row — or under different --jobs — produces
// byte-identical files; a test pins that property.
#ifndef GHOST_SIM_SRC_SCENARIO_SCENARIO_RUNNER_H_
#define GHOST_SIM_SRC_SCENARIO_SCENARIO_RUNNER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/scenario/scenario.h"
#include "src/stats/stats.h"

namespace gs {
namespace scenario {

struct ScenarioResult {
  std::string name;
  uint64_t seed = 0;
  // Deterministic integer observations, keyed by metric name.
  std::map<std::string, int64_t> exact;
  // Performance observations, keyed by metric name.
  std::map<std::string, double> envelopes;
  // Invariant-checker violation messages (empty on a clean run); the count
  // and ok-bit are mirrored into `exact` for the golden comparison.
  std::vector<std::string> violations;
};

// Runs the scenario to completion on a fleet::Cluster. A spec without a
// `fleet` block builds the degenerate one-node cluster — one SimulationContext
// run locally, byte-for-byte the historical single-machine path. `stats`,
// when non-null, is borrowed as the run's StatsRegistry (the harness passes
// its per-run registry); nullptr keeps the zero-overhead path. In fleet mode
// each machine owns a private registry, merged into `stats` in machine order.
// `jobs` bounds intra-epoch machine parallelism in fleet mode; results are
// byte-identical for every value.
ScenarioResult RunScenario(const ScenarioSpec& spec, StatsRegistry* stats = nullptr,
                           int jobs = 1);

// Renders the golden-expectations document for a result (trailing newline
// included — goldens are files).
std::string RenderGolden(const ScenarioResult& result);

// Checks `result` against a golden document previously produced by
// RenderGolden: true iff RenderGolden(result) equals it byte for byte. On a
// mismatch returns false and appends one DiffJson line per moved key
// ("envelopes.p99_us: 1015.807 → 1100.2") to `*failures`.
bool CheckGolden(const ScenarioResult& result, const std::string& golden_json,
                 std::vector<std::string>* failures);

}  // namespace scenario
}  // namespace gs

#endif  // GHOST_SIM_SRC_SCENARIO_SCENARIO_RUNNER_H_
