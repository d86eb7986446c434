// The policy SDK: everything a Policy author composes.
//
// ghOSt's pitch is that a scheduler is just user-space software (Table 2:
// the paper's policies are 700–900 LoC because the support library does the
// heavy lifting). The SDK is that support library's policy-facing surface:
//
//  * the global-agent shape (sdk/global_agent.h): GlobalAgentPolicy, the
//    inactive-agent/hot-handoff/group-commit skeleton of every centralized
//    policy (Fig 4, §3.3);
//  * runqueue primitives (sdk/runqueue.h): FifoRunqueue, MinRunqueue,
//    PrioArrayRunqueue — the three queue shapes every policy in this repo
//    is built from;
//  * timeslice helpers (sdk/timeslice.h): SliceBudget virtual-time
//    accounting, priority->slice interpolation, slice-expiry wakeup arming;
//  * placement helpers (sdk/placement.h): PlacementHint and the inside-out
//    TieredPlacer (§4.4's same-core/same-CCX/neighbour search with warmth
//    deferral).
//
// Message plumbing lives one level down in Policy (typed hooks over the
// shared TaskTable); predictors that feed PlacementHints and long-vs-short
// routing live in src/predict/. A new policy is: subclass Policy (per-CPU
// agents) or GlobalAgentPolicy (one global agent), pick queue primitives,
// implement Schedule() — see the README quickstart and src/policies/ for
// consumers.
#ifndef GHOST_SIM_SRC_AGENT_SDK_SDK_H_
#define GHOST_SIM_SRC_AGENT_SDK_SDK_H_

#include "src/agent/policy.h"            // IWYU pragma: export
#include "src/agent/sdk/global_agent.h"  // IWYU pragma: export
#include "src/agent/sdk/placement.h"     // IWYU pragma: export
#include "src/agent/sdk/runqueue.h"      // IWYU pragma: export
#include "src/agent/sdk/timeslice.h"     // IWYU pragma: export
#include "src/agent/task_table.h"        // IWYU pragma: export

#endif  // GHOST_SIM_SRC_AGENT_SDK_SDK_H_
