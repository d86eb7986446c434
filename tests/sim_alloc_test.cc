// Steady-state allocation test for the whole simulation hot loop.
//
// The event engine test (event_alloc_test) proves the timing wheel is
// allocation-free; this test raises the bar to the full ghOSt stack. A
// fig5-shaped run — spinning global agent, workers that burst / block /
// re-wake, every cycle posting messages and committing transactions — must
// not touch the heap at all once slabs, rings, scratch vectors, and flat
// tables are warm. One heap hit per event is the difference between the
// pre-slab and post-slab profiles, so the budget here is exactly zero.
//
// Also holds the unit tests for the allocators themselves: Slab<T> reuse,
// lazy fill, generation-checked handles and deterministic Clear(); and the
// footprint tests: storage that a simulated machine may never use (queue
// slots, histogram buckets) is requested on first use, so building a machine
// stays cheap.
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/agent/agent_process.h"
#include "src/base/histogram.h"
#include "src/base/slab.h"
#include "src/ghost/message_queue.h"
#include "src/policies/centralized_fifo.h"
#include "src/policies/per_cpu_fifo.h"
#include "src/sim/simulation.h"
#include "src/stats/stats.h"

namespace {

std::atomic<uint64_t> g_allocs{0};
std::atomic<uint64_t> g_frees{0};
std::atomic<uint64_t> g_bytes{0};  // requested, not net of frees
// When >= 0, every block operator new hands out is filled with this byte, so
// a test can tell fields a container set up from raw memory it never wrote.
std::atomic<int> g_fill{-1};

void* Filled(void* p, std::size_t size) {
  const int fill = g_fill.load(std::memory_order_relaxed);
  if (fill >= 0) {
    std::memset(p, fill, size);
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    return Filled(p, size);
  }
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return operator new(size); }

// Out of line: inlined into a caller, it lets GCC pair that caller's `new`
// with this `free` and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept {
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
  g_bytes.fetch_add(size, std::memory_order_relaxed);
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) / a * a)) {
    return Filled(p, size);
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

// ---- Slab<T> ---------------------------------------------------------------

struct Tracked {
  explicit Tracked(int v = 0) : value(v) { ++live_count; }
  ~Tracked() { --live_count; }
  int value;
  static int live_count;
};
int Tracked::live_count = 0;

TEST(SlabTest, ReusesFreedSlotsLifo) {
  Slab<Tracked> slab;
  Tracked* a = slab.New(1);
  Tracked* b = slab.New(2);
  EXPECT_EQ(slab.live(), 2u);

  slab.Delete(a);
  EXPECT_EQ(slab.live(), 1u);
  // Freelist is LIFO: the very next New reuses a's slot.
  Tracked* c = slab.New(3);
  EXPECT_EQ(c, a);
  EXPECT_EQ(c->value, 3);
  EXPECT_EQ(slab.live(), 2u);
  slab.Delete(b);
  slab.Delete(c);
  EXPECT_EQ(Tracked::live_count, 0);
}

TEST(SlabTest, HandleGoesStaleOnFreeAndReuse) {
  Slab<Tracked> slab;
  Tracked* obj = slab.New(7);
  const Slab<Tracked>::Handle h = slab.HandleOf(obj);
  ASSERT_EQ(slab.Get(h), obj);

  slab.Delete(obj);
  EXPECT_EQ(slab.Get(h), nullptr) << "freed slot must invalidate the handle";

  // Reuse bumps the generation: the old handle stays stale, the new one works.
  Tracked* again = slab.New(8);
  ASSERT_EQ(again, obj);
  EXPECT_EQ(slab.Get(h), nullptr) << "reused slot must not resurrect old handle";
  EXPECT_EQ(slab.Get(slab.HandleOf(again)), again);
  slab.Delete(again);
}

TEST(SlabTest, NullHandleAndGarbageHandlesAreRejected) {
  Slab<Tracked> slab;
  EXPECT_EQ(slab.Get(Slab<Tracked>::kNullHandle), nullptr);
  EXPECT_EQ(slab.Get(0xdeadbeefdeadbeefull), nullptr);
}

TEST(SlabTest, NeverHandedOutSlotIsNotLive) {
  // The chunk's raw memory reads as live slots of generation 0x01010101: a
  // slab that looked past the slots it has handed out would accept these.
  Slab<Tracked> slab;
  g_fill.store(0x01);
  Tracked* only = slab.New(1);
  g_fill.store(-1);
  for (uint64_t index : {1, 5, 255}) {
    EXPECT_EQ(slab.Get(index + 1), nullptr) << "slot " << index;
    EXPECT_EQ(slab.Get((uint64_t{0x01010101} << 32) | (index + 1)), nullptr)
        << "slot " << index;
  }
  EXPECT_EQ(slab.Get(slab.HandleOf(only)), only);
  slab.Delete(only);
}

TEST(SlabTest, ClearDestroysAndRestoresDeterministicOrder) {
  Slab<Tracked> slab;
  std::vector<Tracked*> first;
  std::vector<Slab<Tracked>::Handle> handles;
  for (int i = 0; i < 600; ++i) {  // spans multiple 256-slot chunks
    first.push_back(slab.New(i));
    handles.push_back(slab.HandleOf(first.back()));
  }
  EXPECT_EQ(Tracked::live_count, 600);

  slab.Clear();
  EXPECT_EQ(Tracked::live_count, 0);
  EXPECT_EQ(slab.live(), 0u);
  EXPECT_GE(slab.capacity(), 600u);

  // A cleared slab hands out slots in the same order as a fresh one, so
  // allocation addresses — and anything keyed on them — stay deterministic.
  for (int i = 0; i < 600; ++i) {
    Tracked* again = slab.New(i);
    EXPECT_EQ(again, first[i]) << "slot order diverged at " << i;
    // Generations survive Clear(): a handle taken before it names a dead
    // object even once its slot is handed out again.
    EXPECT_EQ(slab.Get(handles[i]), nullptr) << "stale handle revived at " << i;
    EXPECT_EQ(slab.Get(slab.HandleOf(again)), again);
  }
  slab.Clear();
}

TEST(SlabTest, WarmSlabDoesNotAllocate) {
  Slab<Tracked> slab;
  std::vector<Tracked*> objs;
  objs.reserve(256);
  for (int i = 0; i < 256; ++i) {
    objs.push_back(slab.New(i));
  }
  for (Tracked* t : objs) {
    slab.Delete(t);
  }

  const uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int round = 0; round < 1000; ++round) {
    Tracked* a = slab.New(round);
    Tracked* b = slab.New(round + 1);
    slab.Delete(a);
    slab.Delete(b);
  }
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), before)
      << "warm New/Delete cycles must not touch the heap";
}

// ---- Full-stack steady state ----------------------------------------------

// Fig 5's worker shape: burst, block, re-wake 100ns later, forever.
void ArmWorkerBurst(Kernel* k, Task* t, Duration burst) {
  k->StartBurst(t, burst, [k, burst](Task* done) {
    k->Block(done);
    k->loop()->ScheduleAfter(Nanoseconds(100), [k, done, burst] {
      ArmWorkerBurst(k, done, burst);
      k->Wake(done);
    });
  });
}

TEST(SimAllocTest, GhostSteadyStateIsAllocationFree) {
  SimulationContext m({.topology = Topology::Make("t", 1, 8, 1, 8)});
  auto enclave = m.CreateEnclave(CpuMask::AllUpTo(8));
  CentralizedFifoPolicy::Options options;
  options.global_cpu = 0;
  AgentProcess process(&m.kernel(), m.ghost_class(), enclave.get(),
                       std::make_unique<CentralizedFifoPolicy>(options));
  process.Start();

  for (int i = 0; i < 14; ++i) {
    Task* t = m.kernel().CreateTask("spin/" + std::to_string(i));
    enclave->AddTask(t);
    ArmWorkerBurst(&m.kernel(), t, Microseconds(10));
    m.kernel().Wake(t);
  }

  // Warm up every pool the steady state touches: task/message slabs, event
  // slots, scratch vectors, flat tables, queue rings.
  m.RunFor(Milliseconds(5));
  ASSERT_GT(process.iterations(), 100u) << "agent must actually be scheduling";

  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  const uint64_t iters_before = process.iterations();

  m.RunFor(Milliseconds(20));

  const uint64_t allocs = g_allocs.load(std::memory_order_relaxed) - allocs_before;
  const uint64_t iters = process.iterations() - iters_before;
  EXPECT_GT(iters, 500u) << "measurement window must cover real scheduling";
  EXPECT_EQ(allocs, 0u)
      << "steady-state scheduling (messages, wakeups, commits) must not "
         "allocate; "
      << allocs << " heap allocations leaked into " << iters << " iterations";
}

// ---- Footprint -------------------------------------------------------------

// Heap bytes requested while `fn` runs.
template <typename Fn>
uint64_t BytesRequestedBy(Fn&& fn) {
  const uint64_t before = g_bytes.load(std::memory_order_relaxed);
  fn();
  return g_bytes.load(std::memory_order_relaxed) - before;
}

TEST(SimFootprintTest, MessageQueueRequestsStorageOnUse) {
  std::optional<MessageQueue> queue;
  EXPECT_EQ(BytesRequestedBy([&] { queue.emplace(/*id=*/0, kDefaultQueueCapacity); }), 0u)
      << "an empty queue must not reserve its logical capacity";

  constexpr int kDepth = 300;
  auto fill = [&] {
    for (int i = 0; i < kDepth; ++i) {
      ASSERT_TRUE(queue->Push(Message{}));
    }
  };
  fill();
  while (queue->Pop().has_value()) {
  }
  const uint64_t allocs_before = g_allocs.load(std::memory_order_relaxed);
  fill();
  EXPECT_EQ(g_allocs.load(std::memory_order_relaxed), allocs_before)
      << "refilling a drained queue to its previous depth must reuse its storage";
}

TEST(SimFootprintTest, UnobservedHistogramsRequestNoBuckets) {
  std::optional<Histogram> histogram;
  EXPECT_EQ(BytesRequestedBy([&] { histogram.emplace(); }), 0u);

  // Disabled, as in a stats-off run: its histograms are registered but
  // never observed.
  StatsRegistry registry;
  const uint64_t counter_bytes = BytesRequestedBy([&] { registry.GetCounter("idle_a"); });
  HistogramMetric* metric = nullptr;
  const uint64_t histogram_bytes =
      BytesRequestedBy([&] { metric = registry.GetHistogram("idle_b"); });
  // A histogram's registration differs from a counter's only in the metric
  // object itself.
  EXPECT_LE(histogram_bytes, counter_bytes + sizeof(HistogramMetric));
  EXPECT_EQ(BytesRequestedBy([&] { metric->Observe(1'000); }), 0u);
}

TEST(SimFootprintTest, FleetNodeMachineFitsItsBudget) {
  // One fleet_rpc machine: 1 socket x 2 cores x 2 SMT, per-CPU FIFO agents
  // on CPUs 1-3. Its four queues pre-sized to the default capacity would
  // alone request 3.25 MB (4 x 8192 x 104 B); the budget covers the slabs'
  // first chunks and the per-CPU tables.
  constexpr uint64_t kBudget = 512 << 10;
  std::optional<SimulationContext> m;
  std::unique_ptr<Enclave> enclave;
  std::optional<AgentProcess> process;
  const uint64_t built = BytesRequestedBy([&] {
    m.emplace(SimulationContext::Options{
        .topology = Topology::Make("fleet_node", /*sockets=*/1, /*cores_per_socket=*/2,
                                   /*smt=*/2, /*cores_per_ccx=*/2)});
    CpuMask agent_cpus;
    for (int cpu = 1; cpu <= 3; ++cpu) {
      agent_cpus.Set(cpu);
    }
    enclave = m->CreateEnclave(agent_cpus);
    process.emplace(&m->kernel(), m->ghost_class(), enclave.get(),
                    std::make_unique<PerCpuFifoPolicy>());
    process->Start();
  });
  EXPECT_LE(built, kBudget);
}

}  // namespace
}  // namespace gs
