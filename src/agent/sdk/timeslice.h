// Policy-SDK timeslice and budget helpers.
//
// Slice accounting in a ghOSt policy is virtual-time arithmetic over the
// agent's own observations: the policy knows when it committed a task
// (picked_at) and learns when the task left the CPU (the next message about
// it), so "how much slice is left" is a subtraction, not a kernel query.
// SliceBudget packages that bookkeeping; the interpolation and wakeup-arming
// helpers cover the two ways policies consume slices (per-priority budgets
// in O(1)-style schedulers, rotation probes in Shinjuku-style ones).
#ifndef GHOST_SIM_SRC_AGENT_SDK_TIMESLICE_H_
#define GHOST_SIM_SRC_AGENT_SDK_TIMESLICE_H_

#include "src/base/time.h"

namespace gs {

// Per-task slice budget, charged in virtual time between the policy's
// commit and the next message about the task.
struct SliceBudget {
  Duration remaining = 0;  // budget left in the current slice
  Time picked_at = 0;      // when the policy last committed the task
  bool running = false;    // policy belief: on CPU since picked_at

  // Grants a fresh slice (wakeup reward, post-expiry refresh).
  void Refresh(Duration slice) { remaining = slice; }

  // Records a committed dispatch at virtual time `now`.
  void MarkPicked(Time now) {
    picked_at = now;
    running = true;
  }

  // Charges run time since the last pick against the budget; no-op unless
  // the task was believed running. The commit landed slightly after
  // picked_at (agent-iteration cost), so this over-charges by at most one
  // iteration — the same direction real tick-based accounting errs.
  void ChargeUntil(Time now) {
    if (!running) {
      return;
    }
    running = false;
    const Duration elapsed = now - picked_at;
    remaining = remaining > elapsed ? remaining - elapsed : 0;
  }

  bool Expired() const { return remaining == 0; }
};

// Linear priority -> timeslice interpolation: `base` at priority 0 down to
// `min` at the lowest level, mirroring Linux's static_prio -> timeslice map.
inline Duration InterpolatedTimeslice(Duration base, Duration min, int priority,
                                      int levels) {
  if (levels <= 1) {
    return base;
  }
  return base - (base - min) * priority / (levels - 1);
}

// When must a slice-enforcing agent next wake up? It tracks each running
// task exactly and wakes at the earliest expiry: the oldest running task's
// start plus one slice.
inline Time NextSliceWakeup(Time earliest_since, Duration slice) {
  return earliest_since + slice;
}

}  // namespace gs

#endif  // GHOST_SIM_SRC_AGENT_SDK_TIMESLICE_H_
