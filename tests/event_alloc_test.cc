// Steady-state allocation test for the event engine.
//
// The timing wheel pools event slots and InlineCallback stores captures
// inline, so once the slab is warm, scheduling / firing / cancelling events
// must not touch the heap at all. This test overrides global operator
// new/delete with counting shims and drives >1M events through a warmed
// loop, requiring an allocation delta of exactly zero.
//
// Runs the workload the engine sees in production: staggered periodic ticks
// (one per simulated CPU) whose callbacks schedule oneshot events, a
// schedule+cancel pair to exercise the free list, and a completion event
// re-armed in place with Reschedule.
#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "src/sim/event_loop.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_frees{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

void operator delete(void* p) noexcept {
  if (p != nullptr) {
    g_frees.fetch_add(1, std::memory_order_relaxed);
    std::free(p);
  }
}

void operator delete(void* p, std::size_t) noexcept { operator delete(p); }
void operator delete[](void* p) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { operator delete(p); }

// Over-aligned types (the event engine's callback chunks) come through the
// align_val_t forms; count them too.
void* operator new(std::size_t size, std::align_val_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) {
    return p;
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p, std::align_val_t) noexcept { operator delete(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::align_val_t) noexcept { operator delete(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { operator delete(p); }

namespace gs {
namespace {

TEST(EventAllocTest, SteadyStateIsAllocationFree) {
  EventLoop loop;
  constexpr int kCpus = 64;
  constexpr Duration kPeriod = 1000;  // 1us ticks

  struct TickState {
    EventLoop* loop;
    EventId pending = kInvalidEventId;
    EventId completion = kInvalidEventId;
    uint64_t fired = 0;
  };
  std::vector<TickState> cpus(kCpus, TickState{&loop});
  for (int i = 0; i < kCpus; ++i) {
    // Stagger phases like the kernel's per-CPU tick.
    TickState* st = &cpus[i];
    loop.SchedulePeriodic(1 + (kPeriod * i) / kCpus, kPeriod, [st] {
      ++st->fired;
      // A fire-and-forget oneshot...
      st->loop->ScheduleAfter(kPeriod / 2, [st] { ++st->fired; });
      // ...and a schedule+cancel pair to exercise the slot free list.
      if (st->pending != kInvalidEventId) {
        st->loop->Cancel(st->pending);
      }
      st->pending = st->loop->ScheduleAfter(10 * kPeriod, [st] { ++st->fired; });
      // ...and a completion that each tick pushes back before it can fire.
      const Time when = st->loop->now() + 3 * kPeriod;
      if (!st->loop->Reschedule(st->completion, when)) {
        st->completion = st->loop->ScheduleAt(when, [st] { ++st->fired; });
      }
    });
  }

  // Warm up: grow the slab and every wheel bucket the steady state will
  // touch.
  loop.RunUntil(50 * kPeriod);
  const uint64_t warm_executed = loop.executed_count();
  ASSERT_GT(warm_executed, 1000u);

  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t frees_before = g_frees.load(std::memory_order_relaxed);

  // >1M events: 64 periodics + 64 oneshots per period, ~8200 periods.
  loop.RunUntil(50 * kPeriod + 8200 * kPeriod);
  const uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const uint64_t frees = g_frees.load(std::memory_order_relaxed) - frees_before;

  const uint64_t executed = loop.executed_count() - warm_executed;
  EXPECT_GT(executed, 1000000u) << "workload must cover >1M events";
  EXPECT_EQ(allocs, 0u) << "steady-state events must not allocate";
  EXPECT_EQ(frees, 0u) << "steady-state events must not free";
}

}  // namespace
}  // namespace gs
