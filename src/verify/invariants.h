// InvariantChecker: continuous whole-machine consistency auditing.
//
// Attach one to a Kernel (and Watch() the enclaves of interest) and it
// periodically sweeps kernel + ghOSt module state, asserting the properties
// the paper's design is supposed to preserve even under faults (§3.1, §3.4):
//
//  * CPU/task mutual consistency — a CPU's `current` is kRunning and believes
//    it is on that CPU; every kRunning task is current (or switching in) on
//    exactly the CPU it names; the kernel's cached idle bit and occupant
//    priority agree with the CPU's state.
//  * No lost tasks — every thread in the ghOSt scheduling class is managed by
//    an enclave; every enclave-managed thread is alive, in the enclave's
//    class, and its kernel/ghOSt back-pointers agree.
//  * Status-word consistency — the published Tseq matches the kernel-side
//    counter and never regresses within one enclave membership; on_cpu /
//    runnable bits agree with the kernel's view.
//  * Latch consistency — a latched (committed, not yet picked) transaction
//    points at a live task and the task points back at the latching CPU.
//  * Queue accounting — per-task pending-message counts never exceed the
//    messages actually sitting in the enclave's queues.
//  * Bounded ghOSt starvation — a runnable ghOSt thread is never left
//    unscheduled longer than the enclave's watchdog bound (the watchdog must
//    have destroyed the enclave by then, §3.4).
//  * Work conservation (non-ghOSt) — a runnable CFS/RT thread does not wait
//    beyond a grace period while a CPU it may run on sits continuously idle.
//
// Checks never mutate simulation state and never touch the trace, so an
// attached checker does not perturb deterministic-replay digests.
#ifndef GHOST_SIM_SRC_VERIFY_INVARIANTS_H_
#define GHOST_SIM_SRC_VERIFY_INVARIANTS_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/time.h"
#include "src/sim/event_loop.h"

namespace gs {

class Enclave;
class Kernel;

class InvariantChecker {
 public:
  struct Options {
    // Scan cadence. Scans are pure observation (no state changes, no trace
    // records), so the period trades CPU for detection latency only.
    Duration period = Microseconds(250);
    // A runnable non-ghOSt task may wait this long while an affinity-
    // compatible CPU sits continuously idle before it counts as a work-
    // conservation violation (CFS idle/periodic balance is ms-scale).
    Duration conservation_grace = Milliseconds(20);
    // Slack added to the watchdog starvation bound (watchdog_timeout plus up
    // to two scan periods of detection latency, plus this).
    Duration starvation_slack = Milliseconds(2);
    // Starvation bound applied to ghOSt threads of watched enclaves whose
    // watchdog is disabled. 0 = skip the check for such enclaves.
    Duration ghost_starvation_bound = 0;
    // Stop collecting after this many distinct violations.
    size_t max_violations = 32;
  };

  InvariantChecker(Kernel* kernel, Options options);
  explicit InvariantChecker(Kernel* kernel) : InvariantChecker(kernel, Options()) {}
  ~InvariantChecker();

  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  // Adds an enclave to the watch set (enclave checks + starvation bound).
  // The enclave must outlive the checker or be destroyed (not freed) first.
  void Watch(Enclave* enclave);

  // Starts/stops periodic scanning on the kernel's event loop.
  void Start();
  void Stop();

  // Runs one scan immediately (usable with or without Start()).
  void CheckNow();

  bool ok() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }
  // All violations joined for test failure messages; empty when ok().
  std::string Report() const;
  uint64_t scans() const { return scans_; }

 private:
  void Scan();
  void ScheduleNext();
  void Violation(const std::string& message);

  void CheckCpus();
  void CheckGhostMembership();
  void CheckEnclave(Enclave* enclave);
  // A CPU no enclave owns must hold no latch and no forced-idle marker:
  // leaked teardown state silently strands whatever a successor enclave
  // places there. Runs against the ghost class of every watched enclave,
  // including destroyed ones (teardown is exactly when leaks happen).
  void CheckOrphanedCpuState();
  void CheckConservation();

  Kernel* kernel_;
  Options options_;
  std::vector<Enclave*> enclaves_;

  bool running_ = false;
  EventId scan_event_ = kInvalidEventId;
  uint64_t scans_ = 0;

  std::vector<std::string> violations_;
  std::set<std::string> seen_;  // dedup: one report per distinct message

  // CheckCpus: per tid, the scan that last found the task current and the
  // first CPU it was current on in that scan (a second CPU is a violation).
  struct CurrentStamp {
    uint64_t scan = 0;
    int cpu = -1;
  };
  std::vector<CurrentStamp> current_stamps_;
  // Tseq monotonicity memory, by tid: {membership generation, last tseq}.
  std::vector<std::pair<uint64_t, uint32_t>> last_tseq_;
  // Conservation: when each CPU was last observed non-idle.
  std::vector<Time> last_busy_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_VERIFY_INVARIANTS_H_
