// Microbenchmark for the discrete-event engine: the timing-wheel EventLoop
// against ReferenceEventLoop (the original binary-heap engine).
//
// Workloads:
//   mixed          self-sustaining callback chains with bimodal delays
//                  (~70% 0-10us, ~30% ~1ms) plus a ~30% cancel mix
//   periodic       hundreds of staggered periodic timers (1-100us periods)
//   tick_storm_N   N simulated CPUs, each a staggered 1ms periodic tick whose
//                  callback schedules a delay-0 resched and a 5us follow-up
//   rearm          per-CPU burst completions that a chain of sibling flips
//                  (100-700ns apart) keeps moving, as SMT re-rates do: the
//                  wheel moves them with Reschedule, the reference cancels
//                  and schedules anew
//
// Every workload runs on both engines from the same seed; the (now, tag)
// firing sequences are FNV-hashed and must match exactly — a mismatch is a
// determinism bug and the binary exits non-zero. Wall-clock events/sec, the
// wheel/reference speedup and the wheel's exact work counts
// (EventLoop::work()) are reported through the schema-v1 harness.
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>
#include <type_traits>
#include <vector>

#include "bench/harness.h"
#include "src/base/rng.h"
#include "src/sim/event_loop.h"
#include "src/sim/reference_event_loop.h"

namespace gs {
namespace {

constexpr uint64_t kFnvOffset = 0xcbf29ce484222325ull;
constexpr uint64_t kFnvPrime = 0x100000001b3ull;

inline uint64_t FnvMix(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h = (h ^ (v & 0xff)) * kFnvPrime;
    v >>= 8;
  }
  return h;
}

struct RunResult {
  uint64_t events = 0;
  double seconds = 0;
  uint64_t checksum = kFnvOffset;
  EventLoop::Work work;  // wheel only
};

template <typename Loop>
void TakeWork(const Loop& loop, RunResult* r) {
  if constexpr (std::is_same_v<Loop, EventLoop>) {
    r->work = loop.work();
  }
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// ---- mixed: schedule/fire/cancel chains --------------------------------

template <typename Loop>
struct MixedState {
  Loop loop;
  Rng rng;
  uint64_t checksum = kFnvOffset;
  uint64_t spawned = 0;
  uint64_t target = 0;
  uint64_t next_tag = 0;
  std::vector<EventId> ring;  // cancel candidates
  size_t ring_pos = 0;

  explicit MixedState(uint64_t seed) : rng(seed), ring(512, kInvalidEventId) {}

  void SpawnChain() {
    if (spawned >= target) {
      return;
    }
    ++spawned;
    const uint64_t tag = ++next_tag;
    // Bimodal: mostly short (sub-bucket to level ~2), a heavy tail at ~1ms.
    const Duration delay =
        rng.NextBounded(10) < 7
            ? static_cast<Duration>(rng.NextBounded(10000))
            : static_cast<Duration>(1000000 + rng.NextBounded(100000));
    loop.ScheduleAfter(delay, [this, tag] { OnFire(tag); });
  }

  void OnFire(uint64_t tag) {
    checksum = FnvMix(FnvMix(checksum, static_cast<uint64_t>(loop.now())), tag);
    SpawnChain();
    if (rng.NextBounded(10) < 3) {
      // Schedule a victim far out and cancel whatever previously occupied
      // its ring slot (it may have fired already: both outcomes count).
      const uint64_t vtag = ++next_tag;
      EventId& slot = ring[ring_pos];
      ring_pos = (ring_pos + 1) % ring.size();
      if (slot != kInvalidEventId) {
        loop.Cancel(slot);
      }
      slot = loop.ScheduleAfter(static_cast<Duration>(2000000),
                                [this, vtag] { OnFire(vtag); });
    }
  }
};

template <typename Loop>
RunResult RunMixed(uint64_t seed, uint64_t target) {
  MixedState<Loop> st(seed);
  st.target = target;
  WallTimer timer;
  for (int i = 0; i < 512; ++i) {
    st.SpawnChain();
  }
  st.loop.RunUntilIdle();
  RunResult r;
  r.seconds = timer.Elapsed();
  r.events = st.loop.executed_count();
  r.checksum = st.checksum;
  TakeWork(st.loop, &r);
  return r;
}

// ---- periodic-heavy ----------------------------------------------------

template <typename Loop>
RunResult RunPeriodicHeavy(uint64_t seed, int timers, uint64_t target) {
  Loop loop;
  Rng rng(seed);
  uint64_t checksum = kFnvOffset;
  std::vector<EventId> ids;
  WallTimer timer;
  for (int i = 0; i < timers; ++i) {
    const uint64_t tag = static_cast<uint64_t>(i);
    const Duration period = static_cast<Duration>(1000 + rng.NextBounded(99000));
    const Duration phase = static_cast<Duration>(1 + rng.NextBounded(100000));
    ids.push_back(loop.SchedulePeriodic(phase, period, [&loop, &checksum, tag] {
      checksum =
          FnvMix(FnvMix(checksum, static_cast<uint64_t>(loop.now())), tag);
    }));
  }
  while (loop.executed_count() < target) {
    loop.RunUntil(loop.now() + 1000000);
  }
  for (EventId id : ids) {
    loop.Cancel(id);
  }
  RunResult r;
  r.seconds = timer.Elapsed();
  r.events = loop.executed_count();
  r.checksum = checksum;
  TakeWork(loop, &r);
  return r;
}

// ---- tick storm --------------------------------------------------------

template <typename Loop>
struct StormState {
  Loop loop;
  uint64_t checksum = kFnvOffset;

  void Tick(uint64_t cpu) {
    checksum = FnvMix(FnvMix(checksum, static_cast<uint64_t>(loop.now())), cpu);
    // A tick kicks a zero-delay resched and a short follow-up, like the
    // kernel's IPI + context-switch completion events.
    loop.ScheduleAfter(0, [this, cpu] {
      checksum = FnvMix(checksum, cpu ^ 0x5bd1e995);
    });
    loop.ScheduleAfter(5000, [this, cpu] {
      checksum = FnvMix(checksum, cpu ^ 0x9e3779b9);
    });
  }
};

template <typename Loop>
RunResult RunTickStorm(int cpus, Duration virtual_span) {
  StormState<Loop> st;
  constexpr Duration kTick = 1000000;  // 1ms
  WallTimer timer;
  for (int i = 0; i < cpus; ++i) {
    const uint64_t cpu = static_cast<uint64_t>(i);
    st.loop.SchedulePeriodic(1 + (kTick * i) / cpus, kTick,
                             [&st, cpu] { st.Tick(cpu); });
  }
  st.loop.RunUntil(virtual_span);
  RunResult r;
  r.seconds = timer.Elapsed();
  r.events = st.loop.executed_count();
  r.checksum = st.checksum;
  TakeWork(st.loop, &r);
  return r;
}

// ---- rearm: completions moved by sibling flips --------------------------

template <typename Loop>
struct RearmState {
  Loop loop;
  Rng rng;
  uint64_t checksum = kFnvOffset;
  std::vector<EventId> completion;  // per CPU
  uint64_t flips = 0;
  uint64_t target = 0;

  RearmState(uint64_t seed, int cpus)
      : rng(seed), completion(static_cast<size_t>(cpus), kInvalidEventId) {}

  // Moves CPU `cpu`'s completion to `remaining` from now, as
  // Kernel::ArmCompletion does.
  void Arm(uint64_t cpu, Duration remaining) {
    const Time when = loop.now() + remaining;
    if constexpr (std::is_same_v<Loop, EventLoop>) {
      if (loop.Reschedule(completion[cpu], when)) {
        return;
      }
    }
    loop.Cancel(completion[cpu]);
    completion[cpu] = loop.ScheduleAt(when, [this, cpu] { Complete(cpu); });
  }

  void Complete(uint64_t cpu) {
    checksum = FnvMix(FnvMix(checksum, static_cast<uint64_t>(loop.now())), cpu);
    completion[cpu] = kInvalidEventId;
    Arm(cpu, static_cast<Duration>(10000 + rng.NextBounded(90000)));  // 10-100us
  }

  void Flip() {
    if (++flips > target) {
      return;
    }
    const uint64_t cpu = rng.NextBounded(completion.size());
    checksum = FnvMix(FnvMix(checksum, static_cast<uint64_t>(loop.now())), ~cpu);
    if (completion[cpu] != kInvalidEventId) {
      Arm(cpu, static_cast<Duration>(1000 + rng.NextBounded(60000)));
    }
    loop.ScheduleAfter(static_cast<Duration>(100 + rng.NextBounded(600)),
                       [this] { Flip(); });
  }
};

template <typename Loop>
RunResult RunRearm(uint64_t seed, int cpus, uint64_t flips) {
  RearmState<Loop> st(seed, cpus);
  st.target = flips;
  WallTimer timer;
  for (int i = 0; i < cpus; ++i) {
    st.Arm(static_cast<uint64_t>(i), static_cast<Duration>(1 + st.rng.NextBounded(100000)));
  }
  st.loop.ScheduleAfter(0, [&st] { st.Flip(); });
  // Completions re-arm forever; stop once the flip chain has run out.
  while (st.flips <= st.target) {
    st.loop.RunUntil(st.loop.now() + 1000000);
  }
  RunResult r;
  r.seconds = timer.Elapsed();
  r.events = st.loop.executed_count();
  r.checksum = st.checksum;
  TakeWork(st.loop, &r);
  return r;
}

// ---- driver ------------------------------------------------------------

struct WorkloadResult {
  std::string name;
  RunResult wheel;
  RunResult reference;
};

bool Report(bench::Run& run, std::vector<WorkloadResult>& results) {
  bool ok = true;
  for (const WorkloadResult& w : results) {
    if (w.wheel.checksum != w.reference.checksum ||
        w.wheel.events != w.reference.events) {
      std::fprintf(stderr,
                   "FATAL: %s diverges: wheel %" PRIu64 " events cksum %016" PRIx64
                   ", reference %" PRIu64 " events cksum %016" PRIx64 "\n",
                   w.name.c_str(), w.wheel.events, w.wheel.checksum,
                   w.reference.events, w.reference.checksum);
      ok = false;
    }
    const EventLoop::Work& k = w.wheel.work;
    for (const char* engine : {"wheel", "reference"}) {
      const bool wheel = engine == std::string("wheel");
      const RunResult& r = wheel ? w.wheel : w.reference;
      bench::Row& row = run.AddRow()
                            .Set("workload", w.name)
                            .Set("engine", engine)
                            .Set("events", r.events)
                            .Set("wall_s", r.seconds)
                            .Set("events_per_sec", r.seconds > 0 ? r.events / r.seconds : 0.0)
                            .Set("checksum", static_cast<uint64_t>(r.checksum));
      if (wheel) {
        row.Set("scheduled_zero", k.scheduled_zero)
            .Set("scheduled_near", k.scheduled_near)
            .Set("scheduled_far", k.scheduled_far)
            .Set("cancelled", k.cancelled)
            .Set("rescheduled", k.rescheduled)
            .Set("wheel_inserts", k.wheel_inserts)
            .Set("cascade_reinserts", k.cascade_reinserts);
      }
    }
    const double speedup = w.reference.seconds > 0 && w.wheel.seconds > 0
                               ? w.reference.seconds / w.wheel.seconds
                               : 0.0;
    run.Metric("speedup_" + w.name, speedup);
    std::printf("%-16s wheel %10.0f ev/s   reference %10.0f ev/s   speedup %.2fx\n",
                w.name.c_str(),
                w.wheel.seconds > 0 ? w.wheel.events / w.wheel.seconds : 0.0,
                w.reference.seconds > 0 ? w.reference.events / w.reference.seconds
                                        : 0.0,
                speedup);
    std::printf("%-16s scheduled %" PRIu64 " (zero %" PRIu64 ", <4.096us %" PRIu64
                ", later %" PRIu64 ")  fired %" PRIu64 "  cancelled %" PRIu64
                "  rescheduled %" PRIu64 "  wheel inserts %" PRIu64
                "  cascade re-inserts %" PRIu64 "\n",
                "", k.scheduled(), k.scheduled_zero, k.scheduled_near, k.scheduled_far,
                k.fired, k.cancelled, k.rescheduled, k.wheel_inserts, k.cascade_reinserts);
  }
  return ok;
}

}  // namespace
}  // namespace gs

int main(int argc, char** argv) {
  gs::bench::Harness harness("event_engine", argc, argv);
  const bool quick = harness.quick();

  const uint64_t mixed_events = quick ? 2000000 : 20000000;
  const int periodic_timers = quick ? 256 : 1024;
  const uint64_t periodic_fires = quick ? 2000000 : 20000000;
  const gs::Duration storm_span = quick ? 300000000 : 1000000000;  // 0.3s / 1s
  const uint64_t rearm_flips = quick ? 1000000 : 10000000;
  std::vector<int> storm_cpus = {64, 256};
  if (!quick) {
    storm_cpus.push_back(1024);
  }

  harness.Param("mixed_events", static_cast<int64_t>(mixed_events));
  harness.Param("periodic_timers", periodic_timers);
  harness.Param("periodic_fires", static_cast<int64_t>(periodic_fires));
  harness.Param("storm_span_ns", static_cast<int64_t>(storm_span));
  harness.Param("rearm_flips", static_cast<int64_t>(rearm_flips));

  std::atomic<int> divergences{0};
  harness.RunAll(1000, [&](gs::bench::Run& run) {
    const uint64_t seed = run.seed();
    std::vector<gs::WorkloadResult> results;

    {
      gs::WorkloadResult w;
      w.name = "mixed";
      w.wheel = gs::RunMixed<gs::EventLoop>(seed, mixed_events);
      w.reference = gs::RunMixed<gs::ReferenceEventLoop>(seed, mixed_events);
      results.push_back(std::move(w));
    }
    {
      gs::WorkloadResult w;
      w.name = "periodic";
      w.wheel = gs::RunPeriodicHeavy<gs::EventLoop>(seed, periodic_timers,
                                                    periodic_fires);
      w.reference = gs::RunPeriodicHeavy<gs::ReferenceEventLoop>(
          seed, periodic_timers, periodic_fires);
      results.push_back(std::move(w));
    }
    for (int cpus : storm_cpus) {
      gs::WorkloadResult w;
      w.name = "tick_storm_" + std::to_string(cpus);
      w.wheel = gs::RunTickStorm<gs::EventLoop>(cpus, storm_span);
      w.reference = gs::RunTickStorm<gs::ReferenceEventLoop>(cpus, storm_span);
      results.push_back(std::move(w));
    }

    {
      gs::WorkloadResult w;
      w.name = "rearm";
      w.wheel = gs::RunRearm<gs::EventLoop>(seed, 112, rearm_flips);
      w.reference = gs::RunRearm<gs::ReferenceEventLoop>(seed, 112, rearm_flips);
      results.push_back(std::move(w));
    }

    if (!gs::Report(run, results)) {
      divergences.fetch_add(1, std::memory_order_relaxed);
    }
  });

  const int finish = harness.Finish();
  if (divergences.load() > 0) {
    return 1;  // determinism failure between the two engines
  }
  return finish;
}
