// Unit tests for src/base: histogram, RNG, cpumask, ring deque, rings, and
// the JSON diff.
#include <algorithm>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/cpumask.h"
#include "src/base/histogram.h"
#include "src/base/json.h"
#include "src/base/mpmc_ring.h"
#include "src/base/ring_deque.h"
#include "src/base/rng.h"
#include "src/base/spsc_ring.h"
#include "src/base/time.h"

namespace gs {
namespace {

TEST(TimeTest, Conversions) {
  EXPECT_EQ(Microseconds(3), 3000);
  EXPECT_EQ(Milliseconds(2), 2'000'000);
  EXPECT_EQ(Seconds(1), 1'000'000'000);
  EXPECT_DOUBLE_EQ(ToMicros(Microseconds(7)), 7.0);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(4)), 4.0);
}

TEST(HistogramTest, EmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.Percentile(50), 0);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 0);
}

TEST(HistogramTest, ExactSmallValues) {
  Histogram h;
  for (int i = 0; i < 32; ++i) {
    h.Add(i);
  }
  EXPECT_EQ(h.count(), 32);
  EXPECT_EQ(h.min(), 0);
  EXPECT_EQ(h.max(), 31);
  // Values < 32 land in exact buckets.
  EXPECT_EQ(h.Percentile(100), 31);
}

TEST(HistogramTest, PercentilesMonotone) {
  Histogram h;
  Rng rng(42);
  for (int i = 0; i < 100000; ++i) {
    h.Add(static_cast<int64_t>(rng.NextBounded(10'000'000)));
  }
  int64_t prev = 0;
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    const int64_t v = h.Percentile(p);
    EXPECT_GE(v, prev) << "p" << p;
    prev = v;
  }
}

TEST(HistogramTest, BoundedRelativeError) {
  Histogram h;
  const int64_t value = 123'456'789;
  h.Add(value);
  // A single sample: every percentile must be within ~3.2% of the value.
  const int64_t p50 = h.Percentile(50);
  EXPECT_GE(p50, value * 97 / 100);
  EXPECT_LE(p50, value * 104 / 100);
}

TEST(HistogramTest, MergeMatchesCombined) {
  Histogram a, b, combined;
  Rng rng(7);
  for (int i = 0; i < 5000; ++i) {
    const int64_t v = static_cast<int64_t>(rng.NextBounded(1'000'000));
    if (i % 2 == 0) {
      a.Add(v);
    } else {
      b.Add(v);
    }
    combined.Add(v);
  }
  a.Merge(b);
  EXPECT_EQ(a.count(), combined.count());
  EXPECT_EQ(a.Percentile(99), combined.Percentile(99));
  EXPECT_EQ(a.max(), combined.max());
}

// What a histogram that never saw a sample reports.
constexpr char kNeverObservedJson[] =
    R"({"count":0,"min":0,"max":0,"mean":0,"p50":0,"p90":0,"p99":0,)"
    R"("p99.9":0,"p99.99":0})";

Histogram HistogramOf(std::initializer_list<int64_t> values) {
  Histogram h;
  for (int64_t v : values) {
    h.Add(v);
  }
  return h;
}

TEST(HistogramTest, NeverObservedReportsZeros) {
  const Histogram h;
  for (double p : {0.0, 50.0, 99.99, 100.0}) {
    EXPECT_EQ(h.Percentile(p), 0) << "p" << p;
  }
  EXPECT_EQ(h.Mean(), 0.0);
  EXPECT_EQ(h.ToJson(), kNeverObservedJson);
}

TEST(HistogramTest, MergeWithEitherSideEmpty) {
  const std::string small = HistogramOf({3, 70, 70}).ToJson();
  const std::string all = HistogramOf({3, 70, 70, 4'000, 1'000'000}).ToJson();

  Histogram empty_into_empty;
  empty_into_empty.Merge(Histogram());
  EXPECT_EQ(empty_into_empty.ToJson(), kNeverObservedJson);

  Histogram into_empty;
  into_empty.Merge(HistogramOf({3, 70, 70}));
  EXPECT_EQ(into_empty.ToJson(), small);

  Histogram empty_into_filled = HistogramOf({3, 70, 70});
  empty_into_filled.Merge(Histogram());
  EXPECT_EQ(empty_into_filled.ToJson(), small);

  Histogram both = HistogramOf({3, 70, 70});
  both.Merge(HistogramOf({4'000, 1'000'000}));
  EXPECT_EQ(both.ToJson(), all);
  // Still a working histogram after every kind of merge.
  into_empty.Add(4'000);
  into_empty.Add(1'000'000);
  EXPECT_EQ(into_empty.ToJson(), all);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, DoubleInRange) {
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(5);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.NextExponential(100.0);
  }
  EXPECT_NEAR(sum / n, 100.0, 2.0);
}

TEST(RngTest, BernoulliRate) {
  Rng rng(6);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    hits += rng.NextBernoulli(0.005) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.005, 0.001);
}

TEST(RngTest, BoundedInRange) {
  Rng rng(8);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
    const int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(CpuMaskTest, SetClearCount) {
  CpuMask mask;
  EXPECT_TRUE(mask.Empty());
  mask.Set(0);
  mask.Set(63);
  mask.Set(64);
  mask.Set(511);
  EXPECT_EQ(mask.Count(), 4);
  EXPECT_TRUE(mask.IsSet(63));
  EXPECT_TRUE(mask.IsSet(64));
  mask.Clear(63);
  EXPECT_FALSE(mask.IsSet(63));
  EXPECT_EQ(mask.Count(), 3);
}

TEST(CpuMaskTest, Iteration) {
  CpuMask mask;
  const std::vector<int> cpus = {3, 64, 65, 130, 400};
  for (int cpu : cpus) {
    mask.Set(cpu);
  }
  std::vector<int> seen;
  for (int cpu = mask.First(); cpu >= 0; cpu = mask.NextAfter(cpu)) {
    seen.push_back(cpu);
  }
  EXPECT_EQ(seen, cpus);
}

TEST(CpuMaskTest, Operators) {
  CpuMask a = CpuMask::AllUpTo(8);
  CpuMask b = CpuMask::Single(3) | CpuMask::Single(9);
  EXPECT_EQ((a & b).Count(), 1);
  EXPECT_TRUE((a & b).IsSet(3));
  EXPECT_TRUE(a.Intersects(b));
  EXPECT_FALSE(CpuMask::Single(1).Intersects(CpuMask::Single(2)));
  EXPECT_EQ(CpuMask::AllUpTo(4).ToString(), "{0,1,2,3}");
}

TEST(CpuMaskTest, OutOfRangeCpuAbortsInEveryBuildType) {
  CpuMask mask;
  mask.Set(CpuMask::kMaxCpus - 1);
  EXPECT_TRUE(mask.IsSet(CpuMask::kMaxCpus - 1));
  EXPECT_DEATH(mask.Set(CpuMask::kMaxCpus), "CpuMask: cpu 512 is outside \\[0, 512\\)");
  EXPECT_DEATH((void)mask.IsSet(-1), "CpuMask: cpu -1 is outside");
  EXPECT_DEATH(mask.Clear(1 << 20), "CpuMask: cpu 1048576 is outside");
}

TEST(RingDequeTest, RemovalReleasesWhatASlotOwns) {
  auto value = std::make_shared<int>(7);
  RingDeque<std::shared_ptr<int>> dq;
  dq.push_back(value);
  dq.push_back(value);
  dq.push_back(value);
  ASSERT_EQ(value.use_count(), 4);
  dq.pop_front();
  EXPECT_EQ(value.use_count(), 3);
  dq.pop_back();
  EXPECT_EQ(value.use_count(), 2);
  dq.clear();
  EXPECT_EQ(value.use_count(), 1);
}

TEST(SpscRingTest, FifoOrder) {
  SpscRing<int> ring(8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  EXPECT_FALSE(ring.TryPush(99)) << "ring should be full";
  for (int i = 0; i < 8; ++i) {
    auto v = ring.TryPop();
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(*v, i);
  }
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(SpscRingTest, PeekDoesNotConsume) {
  SpscRing<int> ring(4);
  EXPECT_EQ(ring.Peek(), nullptr);
  ring.TryPush(42);
  ASSERT_NE(ring.Peek(), nullptr);
  EXPECT_EQ(*ring.Peek(), 42);
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(*ring.TryPop(), 42);
}

TEST(SpscRingTest, WrapAround) {
  SpscRing<int> ring(4);
  for (int round = 0; round < 100; ++round) {
    EXPECT_TRUE(ring.TryPush(round));
    EXPECT_EQ(*ring.TryPop(), round);
  }
}

TEST(SpscRingTest, ThreadedProducerConsumer) {
  SpscRing<uint64_t> ring(1024);
  constexpr uint64_t kCount = 200000;
  std::thread producer([&ring] {
    for (uint64_t i = 0; i < kCount; ++i) {
      while (!ring.TryPush(i)) {
      }
    }
  });
  uint64_t expected = 0;
  while (expected < kCount) {
    auto v = ring.TryPop();
    if (v.has_value()) {
      ASSERT_EQ(*v, expected);
      ++expected;
    }
  }
  producer.join();
}

TEST(MpmcRingTest, BasicFifo) {
  MpmcRing<int> ring(8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
  }
  EXPECT_FALSE(ring.TryPush(8));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(*ring.TryPop(), i);
  }
  EXPECT_FALSE(ring.TryPop().has_value());
}

TEST(MpmcRingTest, ThreadedManyProducersManyConsumers) {
  MpmcRing<uint64_t> ring(256);
  constexpr int kProducers = 3;
  constexpr int kConsumers = 3;
  constexpr uint64_t kPerProducer = 50000;
  std::atomic<uint64_t> consumed{0};
  std::atomic<uint64_t> sum{0};

  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&ring, p] {
      for (uint64_t i = 0; i < kPerProducer; ++i) {
        const uint64_t value = static_cast<uint64_t>(p) * kPerProducer + i + 1;
        while (!ring.TryPush(value)) {
        }
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      while (consumed.load() < kProducers * kPerProducer) {
        auto v = ring.TryPop();
        if (v.has_value()) {
          sum.fetch_add(*v);
          consumed.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  const uint64_t n = kProducers * kPerProducer;
  EXPECT_EQ(sum.load(), n * (n + 1) / 2);
}

// ---- DiffJson ----------------------------------------------------------------

JsonValue ParseJson(const char* text) {
  std::optional<JsonValue> value = JsonValue::Parse(text);
  EXPECT_TRUE(value.has_value()) << text;
  return value.value_or(JsonValue{});
}

std::vector<std::string> Diff(const char* want, const char* got,
                              const std::vector<std::string>& skip = {}) {
  return DiffJson(ParseJson(want), ParseJson(got), skip);
}

using Lines = std::vector<std::string>;

TEST(DiffJsonTest, EqualDocumentsHaveNoLines) {
  EXPECT_EQ(Diff(R"({"a":[1,{"b":null}],"c":"x","d":true})",
                 R"({ "d": true, "c": "x", "a": [1.0, {"b": null}] })"),
            Lines{});
}

TEST(DiffJsonTest, KeyMissingOnEitherSide) {
  EXPECT_EQ(Diff(R"({"a":1,"b":2})", R"({"b":2,"c":3})"),
            (Lines{"a: 1 → (absent)", "c: (absent) → 3"}));
}

TEST(DiffJsonTest, TypeChange) {
  EXPECT_EQ(Diff(R"({"a":1,"b":"1","c":[]})", R"({"a":"1","b":{"x":1},"c":null})"),
            (Lines{R"(a: 1 → "1")", R"(b: "1" → {…})", "c: [] → null"}));
  EXPECT_EQ(Diff("[1]", "{}"), Lines{"(document): […] → {}"});
}

TEST(DiffJsonTest, ArraysOfDifferentLength) {
  EXPECT_EQ(Diff("[1,2,3]", "[1,5]"), (Lines{"[1]: 2 → 5", "[2]: 3 → (absent)"}));
  EXPECT_EQ(Diff(R"({"s":[]})", R"({"s":[{"k":1}]})"), Lines{"s[0]: (absent) → {…}"});
}

TEST(DiffJsonTest, NestedPathText) {
  EXPECT_EQ(Diff(R"({"series":[{"load":1},{"p99_us":{"v":false}}]})",
                 R"({"series":[{"load":1},{"p99_us":{"v":true}}]})"),
            Lines{"series[1].p99_us.v: false → true"});
}

TEST(DiffJsonTest, UnequalNumbersPrintDistinctly) {
  // Numbers compare with ==, and each side prints in its shortest
  // round-trip form, so a move past %.12g's digits still reads as a move.
  EXPECT_EQ(Diff(R"({"x":1015.807})", R"({"x":1015.8070000001})"),
            Lines{"x: 1015.807 → 1015.8070000001"});
  EXPECT_EQ(Diff(R"({"x":0.1})", R"({"x":0.10000000000000002})"),
            Lines{"x: 0.1 → 0.10000000000000002"});
  EXPECT_EQ(Diff(R"({"x":2})", R"({"x":2.0})"), Lines{});
}

TEST(DiffJsonTest, SkippedPathIsNotCompared) {
  const char* want = R"({"metrics":{"wall_clock_s":7.1,"txn":5},"wall_clock_s":1})";
  const char* got = R"({"metrics":{"wall_clock_s":9.5,"txn":6},"wall_clock_s":2})";
  EXPECT_EQ(Diff(want, got, {"metrics.wall_clock_s"}),
            (Lines{"metrics.txn: 5 → 6", "wall_clock_s: 1 → 2"}));
  // Skipping a path skips what lies under it, missing keys included.
  EXPECT_EQ(Diff(R"({"a":{"b":1}})", R"({"a":{"c":2}})", {"a"}), Lines{});
  EXPECT_EQ(Diff(R"({"a":1})", R"({})", {"a"}), Lines{});
}

}  // namespace
}  // namespace gs
