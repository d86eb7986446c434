// Scoped glue between a benchmark's machine run and the harness trace
// exporter.
//
// Declare one of these right after constructing the SimulationContext:
//
//   SimulationContext m({.topology = Topology::IntelE5_24(), .stats = &run.stats()});
//   ScopedMachineTrace trace_scope(run, m.kernel());
//
// On construction it attaches the exporter to this run's kernel trace (only
// the first machine of the harness's run 0 actually attaches — see
// Run::MaybeAttachTrace). On destruction — while the kernel is still
// alive — it snapshots every task's tid -> name mapping into the exporter's
// task namer and installs the ghOSt enum namers, so the exported slices read
// "agent/3" / "msg task_wakeup" / "txn_fail estale" instead of raw integers.
#ifndef GHOST_SIM_BENCH_MACHINE_TRACE_H_
#define GHOST_SIM_BENCH_MACHINE_TRACE_H_

#include <map>
#include <memory>
#include <string>

#include "bench/harness.h"
#include "src/ghost/message.h"
#include "src/ghost/transaction.h"
#include "src/kernel/kernel.h"

namespace gs {
namespace bench {

class ScopedMachineTrace {
 public:
  ScopedMachineTrace(Run& run, Kernel& kernel) : run_(run), kernel_(kernel) {
    traced_ = run_.MaybeAttachTrace(kernel_.trace());
  }

  ~ScopedMachineTrace() {
    if (!traced_) {
      return;
    }
    auto names = std::make_shared<std::map<int64_t, std::string>>();
    for (const auto& task : kernel_.tasks()) {
      (*names)[task->tid()] = task->name();
    }
    ChromeTraceExporter* exporter = run_.trace_exporter();
    exporter->SetTaskNamer([names](int64_t tid) {
      auto it = names->find(tid);
      return it == names->end() ? std::string() : it->second;
    });
    exporter->SetArgNamer([](TraceEventType type, int64_t arg) {
      switch (type) {
        case TraceEventType::kMessage:
        case TraceEventType::kMsgDrop:
          return std::string(ToString(static_cast<MessageType>(arg)));
        case TraceEventType::kTxnFail:
          return std::string(ToString(static_cast<TxnStatus>(arg)));
        default:
          return std::string();
      }
    });
  }

  ScopedMachineTrace(const ScopedMachineTrace&) = delete;
  ScopedMachineTrace& operator=(const ScopedMachineTrace&) = delete;

 private:
  Run& run_;
  Kernel& kernel_;
  bool traced_ = false;
};

}  // namespace bench
}  // namespace gs

#endif  // GHOST_SIM_BENCH_MACHINE_TRACE_H_
