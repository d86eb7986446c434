// A µs-scale key-value server scheduled by the ghOSt Shinjuku policy (§4.2).
//
// The server really executes GETs and range SCANs against MiniRocks (the
// in-memory LSM-style store); scheduling and service times run on the
// simulated machine. Short GETs and rare long SCANs form the dispersive mix
// the Shinjuku policy's 30 µs preemption is designed for: without it, a SCAN
// monopolizes a CPU for milliseconds while GETs queue.
#include <cstdio>
#include <memory>

#include "src/base/rng.h"
#include "src/policies/centralized_fifo.h"
#include "src/policies/factory.h"
#include "src/sim/simulation.h"
#include "src/workloads/request_service.h"
#include "src/workloads/rocksdb.h"

using namespace gs;

namespace {

constexpr Duration kGetService = Microseconds(8);
constexpr Duration kScanService = Milliseconds(4);
constexpr double kScanFraction = 0.01;
constexpr size_t kKeys = 20'000;

}  // namespace

int main() {
  // Real database contents.
  MiniRocks db;
  db.LoadSyntheticKeys(kKeys, /*value_bytes=*/64);

  SimulationContext machine({.topology = Topology::Make("kv-server", 1, 6, 2, 6)});
  auto enclave = machine.CreateEnclave(CpuMask::AllUpTo(12));
  auto agents = machine.CreateAgentProcess(
      enclave.get(), MakePolicy({.kind = "shinjuku", .global_cpu = 0, .timeslice_us = 30}, {}));
  agents->Start();

  ThreadPoolServer server(&machine.kernel(), {.num_workers = 64});
  for (Task* worker : server.workers()) {
    enclave->AddTask(worker);
  }

  // The load generator picks an operation, executes it against MiniRocks for
  // real, and submits the corresponding CPU demand to the scheduled pool.
  // (The sink chooses service times itself; the model argument is a
  // placeholder the sink ignores.)
  Rng rng(2024);
  int64_t gets = 0, scans = 0, hits = 0;
  FixedServiceModel placeholder(kGetService);
  PoissonLoadGen gen(
      &machine.loop(), &placeholder, /*requests_per_sec=*/120'000, /*seed=*/7,
      [&](Time arrival, Duration) {
        if (rng.NextBernoulli(kScanFraction)) {
          const uint64_t start = rng.NextBounded(kKeys);
          auto rows = db.Scan(MiniRocks::KeyFor(start), MiniRocks::KeyFor(start + 500), 500);
          (void)rows;
          ++scans;
          server.Submit(arrival, kScanService);
        } else {
          hits += db.Get(MiniRocks::KeyFor(rng.NextBounded(kKeys))).has_value() ? 1 : 0;
          ++gets;
          server.Submit(arrival, kGetService);
        }
      });
  gen.Start(Milliseconds(500));
  machine.RunFor(Milliseconds(600));

  std::printf("rocksdb_server: served %lld GETs (%lld hits) and %lld SCANs\n",
              (long long)gets, (long long)hits, (long long)scans);
  std::printf("completed=%lld latency: %s\n", (long long)server.completed(),
              server.latency().Summary().c_str());
  std::printf("db: %zu keys, %llu gets, %llu scans, last_seq=%llu\n",
              db.ApproximateSize(), (unsigned long long)db.stats().gets,
              (unsigned long long)db.stats().scans,
              (unsigned long long)db.last_sequence());
  auto* policy = static_cast<CentralizedFifoPolicy*>(agents->policy());
  std::printf("shinjuku policy: %llu schedules, %llu preemptions (30us slice kept "
              "GET tails low despite %lld multi-ms scans)\n",
              (unsigned long long)policy->scheduled(),
              (unsigned long long)policy->preemptions(), (long long)scans);
  if (server.completed() != gets + scans) {
    std::printf("ERROR: %lld of %lld requests never completed\n",
                (long long)(gets + scans - server.completed()), (long long)(gets + scans));
    return 1;
  }
  return 0;
}
