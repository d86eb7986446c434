// Golden-expectation regression suite over the built-in scenario battery.
//
//   scenario_runner                      check every built-in against its golden
//   scenario_runner --scenario=<name>    check (or update) just one
//   scenario_runner --jobs=N             fan scenarios across N threads
//   scenario_runner --goldens=<dir>      golden directory override
//   scenario_runner --update-goldens     rewrite goldens from current behavior,
//                                        listing each moved key old → new
//
// A golden matches only when the fresh render equals it byte for byte; a
// mismatch lists every moved key ("envelopes.p99_us: 1015.807 → 1100.2"),
// the lines to quote when a behaviour change re-records. Exit 0 = all
// checked scenarios match (or were updated); 1 = mismatch or missing golden;
// 2 = usage error. Scenarios fan out across a BatchRunner, one
// SimulationContext per scenario, so results are independent of --jobs; the
// golden render itself is deterministic, so --update-goldens twice in a row
// is a byte-level no-op.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/scenario/registry.h"
#include "src/scenario/scenario_runner.h"
#include "src/sim/batch_runner.h"

#ifndef GHOST_SIM_GOLDENS_DIR
#define GHOST_SIM_GOLDENS_DIR "scenarios/goldens"
#endif

namespace {

std::string GoldenPath(const std::string& dir, const std::string& name) {
  return dir + "/" + name + ".golden.json";
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path);
  if (!in) {
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *out = buffer.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string goldens_dir = GHOST_SIM_GOLDENS_DIR;
  std::string only;
  bool update = false;
  int jobs = 1;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    if (std::strcmp(a, "--update-goldens") == 0) {
      update = true;
    } else if (std::strncmp(a, "--goldens=", 10) == 0) {
      goldens_dir = a + 10;
    } else if (std::strncmp(a, "--scenario=", 11) == 0) {
      only = a + 11;
    } else if (std::strncmp(a, "--jobs=", 7) == 0) {
      jobs = std::atoi(a + 7);
    } else {
      std::fprintf(stderr,
                   "scenario_runner: unknown flag \"%s\"\n"
                   "usage: scenario_runner [--scenario=<name>] [--jobs=N]\n"
                   "                       [--goldens=<dir>] [--update-goldens]\n",
                   a);
      return 2;
    }
  }

  std::vector<std::string> names;
  for (const std::string& name : gs::scenario::BuiltinScenarioNames()) {
    if (only.empty() || only == name) {
      names.push_back(name);
    }
  }
  if (names.empty()) {
    std::fprintf(stderr, "scenario_runner: no built-in scenario matches \"%s\"\n",
                 only.c_str());
    return 2;
  }

  // Run every scenario, each on its own SimulationContext. Slot-indexed
  // results make the outcome independent of --jobs.
  const gs::BatchRunner runner(jobs);
  const std::vector<gs::scenario::ScenarioResult> results =
      runner.Map<gs::scenario::ScenarioResult>(
          static_cast<int>(names.size()), [&names](int k) {
            const gs::scenario::ScenarioSpec spec =
                gs::scenario::GetBuiltinScenario(names[static_cast<size_t>(k)]);
            return gs::scenario::RunScenario(spec);
          });

  int failures = 0;
  for (size_t i = 0; i < names.size(); ++i) {
    const std::string path = GoldenPath(goldens_dir, names[i]);
    std::string golden;
    const bool have_golden = ReadFile(path, &golden);
    std::vector<std::string> moved;
    if (have_golden && gs::scenario::CheckGolden(results[i], golden, &moved)) {
      std::printf("ok   %s\n", names[i].c_str());
      continue;
    }
    if (update) {
      std::ofstream out(path, std::ios::trunc);
      if (!out) {
        std::fprintf(stderr, "scenario_runner: cannot write %s\n", path.c_str());
        return 1;
      }
      out << gs::scenario::RenderGolden(results[i]);
      std::printf("updated %s%s\n", path.c_str(), have_golden ? "" : " (new)");
    } else if (!have_golden) {
      std::fprintf(stderr, "FAIL %s: missing golden %s (run --update-goldens)\n",
                   names[i].c_str(), path.c_str());
      ++failures;
    } else {
      std::printf("FAIL %s\n", names[i].c_str());
      ++failures;
    }
    for (const std::string& line : moved) {
      std::printf("     %s\n", line.c_str());
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "%d scenario(s) failed their goldens\n", failures);
    return 1;
  }
  return 0;
}
