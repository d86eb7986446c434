// Policy fuzzer: seeded random hostile policies thrown at the mechanism layer.
//
// The paper's security/robustness claim (§3.4) is that a buggy or adversarial
// policy can starve its own threads but can never corrupt the mechanism layer
// or strand a thread past the watchdog. The explorer scenarios each pin one
// historical race; this module attacks the claim *generatively*: a seeded
// generator composes legal-but-hostile Policy behaviors — drop
// wakeups or new-thread announcements, commit to stale/remote CPUs without
// sequence protection, spray spurious idle transactions, commit conflicting
// sync-groups, spin after committing instead of yielding, sleep on a
// non-empty runqueue, wedge or crash mid-run — and runs each composition
// through a fixed upgrade-heavy workload: the hostile policy is hot-swapped
// in and out of a live enclave (AgentProcess::SwapPolicy) under load, with
// message-drop/ESTALE/IPI-delay fault injection, the InvariantChecker
// scanning throughout, and an explicit mid-load enclave teardown at the end.
//
// A violation is shrunk greedily (knobs zeroed one at a time while the
// normalized violation reproduces) and written to a deterministic replay
// file that re-executes byte-identically, PR-4 style. The `seams` flags
// reintroduce the mechanism bugs this battery surfaced (see GhostClass::
// set_test_unguarded_commit_ipis / set_test_leak_teardown_cpu_state /
// set_test_deferred_exit_teardown), so the checked-in replays stay honest
// regression tests.
#ifndef GHOST_SIM_SRC_VERIFY_POLICY_FUZZER_H_
#define GHOST_SIM_SRC_VERIFY_POLICY_FUZZER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/verify/explorer.h"

namespace gs {

// One generated hostile policy: every knob is a per-decision probability (in
// percent) sampled from the policy's own seeded rng, so a config fully
// determines the policy's behavior on a given schedule.
struct HostileConfig {
  uint64_t seed = 1;
  int drop_wakeup_pct = 0;      // ignore a wakeup (thread never enqueued)
  int drop_new_pct = 0;         // ignore a new-thread announcement
  int stale_cpu_pct = 0;        // commit without aseq protection
  int remote_pct = 0;           // commit to a random remote enclave CPU
  int idle_commit_pct = 0;      // spray a spurious idle txn at a random CPU
  int conflict_group_pct = 0;   // sync-group whose members target one CPU
  int never_yield_pct = 0;      // spin after a local commit (latch starves)
  int block_with_work_pct = 0;  // sleep on a non-empty runqueue
  bool stall_window = false;    // wedge the agent for a window mid-run
  bool crash_agent = false;     // kill the agent process mid-run
};

// Test seams threaded through a fuzz case; both false in production. Each
// true flag reintroduces a fixed mechanism bug so its shrunken replay stays
// a failing reproduction.
struct FuzzSeams {
  bool unguarded_commit_ipis = false;
  bool leak_teardown_cpu_state = false;
  bool deferred_exit_teardown = false;
};

// Deterministic config generation: same seed, same config. At least one
// hostile knob is always active.
HostileConfig GenerateHostileConfig(uint64_t seed);

// Runs one fuzz case: a 4-CPU machine, a watchdogged enclave under a sane
// policy, the hostile policy hot-swapped in and back out mid-load, fault
// injection, and a mid-load teardown. Returns the normalized first violation
// ("" when the mechanism layer survived). Explorer-compatible: `oracle` may
// reorder every same-timestamp batch.
std::string RunFuzzCase(const HostileConfig& config, const FuzzSeams& seams,
                        ScheduleOracle* oracle);

struct FuzzCaseResult {
  HostileConfig config;          // as generated
  HostileConfig shrunk;          // after greedy knob zeroing
  std::string violation;         // normalized first line
  Explorer::ChoiceTrace trace;   // shrunk schedule trace
  uint64_t schedules = 0;        // executions spent on this case
};

struct FuzzSweepOptions {
  int cases = 200;
  uint64_t base_seed = 1;
  // Schedule-space budget per generated config (random-walk executions).
  uint64_t schedules_per_case = 2;
  int jobs = 1;  // parallel walks per case (Explorer::ExploreParallelWalks)
  bool shrink = true;
  bool stop_at_first_case = false;  // stop the sweep at its first violation
  FuzzSeams seams;
};

struct FuzzSweepResult {
  int cases_run = 0;
  uint64_t total_schedules = 0;
  std::vector<FuzzCaseResult> violations;
};

FuzzSweepResult RunFuzzSweep(const FuzzSweepOptions& options);

// Replay-file round trip. Format (text, one header line then key: value):
//   # ghost-sim policy-fuzzer replay v1
//   seed: <config seed>
//   violation: <normalized first line>      (informational)
//   knobs: drop_wakeup=.. drop_new=.. stale_cpu=.. remote=.. idle_commit=..
//          conflict_group=.. never_yield=.. block_with_work=.. stall=0|1
//          crash=0|1                         (single line)
//   seams: unguarded_commit_ipis=0|1 leak_teardown_cpu_state=0|1
//          deferred_exit_teardown=0|1              (single line)
//   choices: c0 c1 c2 ...                    (may be empty)
bool SaveFuzzReplay(const std::string& path, const FuzzCaseResult& result,
                    const FuzzSeams& seams);
bool LoadFuzzReplay(const std::string& path, HostileConfig* config,
                    FuzzSeams* seams, Explorer::ChoiceTrace* trace,
                    std::string* violation);

// Re-executes a loaded replay; returns the observed violation ("" if clean).
std::string RunFuzzReplay(const HostileConfig& config, const FuzzSeams& seams,
                          const Explorer::ChoiceTrace& trace);

}  // namespace gs

#endif  // GHOST_SIM_SRC_VERIFY_POLICY_FUZZER_H_
