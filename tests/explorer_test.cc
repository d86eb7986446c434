// Mutation battery for the schedule-space explorer: each historical
// mechanism race is reintroduced through its test seam and the explorer must
// find a violating interleaving within a bounded schedule budget; with the
// fix in place the same search must come back clean. Plus replay/shrink
// round-trips proving that a violating trace re-executes deterministically.
#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>

#include "src/verify/explorer.h"
#include "src/verify/explorer_scenarios.h"

namespace gs {

// gtest names a parameterised case after its printed parameter; without a
// printer it hex-dumps the struct, pointers included, and the test IDs change
// from one process to the next.
void PrintTo(const ExplorerScenarioInfo& info, std::ostream* os) { *os << info.name; }

namespace {

Explorer::Options BoundedDfs() {
  Explorer::Options options;
  options.mode = Explorer::Mode::kExhaustive;
  options.max_schedules = 2000;
  options.max_branch_depth = 64;
  return options;
}

class ExplorerMutationTest
    : public ::testing::TestWithParam<ExplorerScenarioInfo> {};

TEST_P(ExplorerMutationTest, MutantIsCaughtWithinBudget) {
  const ExplorerScenarioInfo& info = GetParam();
  Explorer explorer(MakeExplorerScenario(info.name, /*mutate=*/true),
                    BoundedDfs());
  Explorer::Result result = explorer.Explore();
  ASSERT_TRUE(result.violation_found)
      << info.name << ": no violation in " << result.schedules
      << " schedules (" << result.choice_points << " choice points, depth "
      << result.max_depth << ")";
  EXPECT_FALSE(result.violation.empty());
  // The default schedule must be benign — the bug needs reordering to fire.
  // (An all-zeros trace IS the default schedule, so check by replaying it,
  // not by the trace length.)
  EXPECT_TRUE(explorer.Replay({}).empty())
      << info.name << ": violation fired on the default schedule";
  EXPECT_FALSE(result.shrunk_trace.empty())
      << info.name << ": shrunken trace should retain a non-default choice";
}

TEST_P(ExplorerMutationTest, FixedCodeIsCleanAcrossSameBudget) {
  const ExplorerScenarioInfo& info = GetParam();
  Explorer::Options options = BoundedDfs();
  options.stop_at_first = false;  // sweep the whole budget
  Explorer explorer(MakeExplorerScenario(info.name, /*mutate=*/false), options);
  Explorer::Result result = explorer.Explore();
  EXPECT_FALSE(result.violation_found)
      << info.name << ": fixed code violated: " << result.violation;
  EXPECT_GT(result.choice_points, 0u) << info.name << ": nothing to explore";
}

TEST_P(ExplorerMutationTest, ShrunkTraceReplaysToSameViolation) {
  const ExplorerScenarioInfo& info = GetParam();
  Explorer explorer(MakeExplorerScenario(info.name, /*mutate=*/true),
                    BoundedDfs());
  Explorer::Result result = explorer.Explore();
  ASSERT_TRUE(result.violation_found);
  EXPECT_LE(result.shrunk_trace.size(), result.trace.size());
  // Byte-deterministic replay: both the original and the shrunken trace
  // reproduce the identical violation, twice in a row.
  EXPECT_EQ(explorer.Replay(result.trace), result.violation);
  EXPECT_EQ(explorer.Replay(result.shrunk_trace), result.violation);
  EXPECT_EQ(explorer.Replay(result.shrunk_trace), result.violation);
}

TEST_P(ExplorerMutationTest, RandomWalkAlsoFindsTheMutant) {
  const ExplorerScenarioInfo& info = GetParam();
  Explorer::Options options;
  options.mode = Explorer::Mode::kRandomWalk;
  options.max_schedules = 3000;
  options.seed = 42;
  options.shrink = false;
  Explorer explorer(MakeExplorerScenario(info.name, /*mutate=*/true), options);
  Explorer::Result result = explorer.Explore();
  EXPECT_TRUE(result.violation_found)
      << info.name << ": random walk missed the bug in " << result.schedules
      << " walks";
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ExplorerMutationTest,
    ::testing::ValuesIn(AllExplorerScenarios()),
    [](const ::testing::TestParamInfo<ExplorerScenarioInfo>& info) {
      return std::string(info.param.name);
    });

TEST(ExplorerReplayFileTest, SaveLoadRoundTrip) {
  const ExplorerScenarioInfo& info = AllExplorerScenarios().front();
  Explorer explorer(MakeExplorerScenario(info.name, /*mutate=*/true),
                    BoundedDfs());
  Explorer::Result result = explorer.Explore();
  ASSERT_TRUE(result.violation_found);

  const std::string path =
      ::testing::TempDir() + "/explorer_replay_roundtrip.txt";
  ASSERT_TRUE(Explorer::SaveTrace(path, info.name, result.violation,
                                  result.shrunk_trace));
  std::string scenario_name;
  Explorer::ChoiceTrace loaded;
  ASSERT_TRUE(Explorer::LoadTrace(path, &scenario_name, &loaded));
  std::remove(path.c_str());
  EXPECT_EQ(scenario_name, info.name);
  EXPECT_EQ(loaded, result.shrunk_trace);

  // A fresh explorer built from the loaded file reproduces the violation.
  Explorer replayer(MakeExplorerScenario(scenario_name, /*mutate=*/true),
                    BoundedDfs());
  EXPECT_EQ(replayer.Replay(loaded), result.violation);
}

TEST(ExplorerReplayFileTest, LoadRejectsGarbage) {
  const std::string path = ::testing::TempDir() + "/explorer_replay_bad.txt";
  {
    std::string scenario_name;
    Explorer::ChoiceTrace trace;
    EXPECT_FALSE(Explorer::LoadTrace(path + ".missing", &scenario_name, &trace));
  }
  FILE* f = fopen(path.c_str(), "w");
  ASSERT_NE(f, nullptr);
  fputs("# not a replay\njust some text\n", f);
  fclose(f);
  std::string scenario_name;
  Explorer::ChoiceTrace trace;
  EXPECT_FALSE(Explorer::LoadTrace(path, &scenario_name, &trace));
  std::remove(path.c_str());
}

TEST(ExplorerPruningTest, SleepSetsPruneWithoutMissingTheBug) {
  const char* kScenario = "fastpath_stale_pick";
  Explorer::Options with = BoundedDfs();
  Explorer::Options without = BoundedDfs();
  without.sleep_sets = false;

  Explorer pruned(MakeExplorerScenario(kScenario, /*mutate=*/true), with);
  Explorer::Result pruned_result = pruned.Explore();
  Explorer full(MakeExplorerScenario(kScenario, /*mutate=*/true), without);
  Explorer::Result full_result = full.Explore();
  EXPECT_TRUE(pruned_result.violation_found);
  EXPECT_TRUE(full_result.violation_found);
  // Both searches converge on the same logical violation.
  EXPECT_EQ(pruned_result.violation, full_result.violation);
}

TEST(ExplorerBudgetTest, UnknownScenarioIsNull) {
  EXPECT_EQ(MakeExplorerScenario("no_such_scenario", false), nullptr);
}

}  // namespace
}  // namespace gs
