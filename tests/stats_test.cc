// Tests for the metrics registry (src/stats): counter/gauge/histogram
// semantics, label handling, the zero-side-effect disabled mode, and the
// deterministic JSON snapshot.
#include "src/stats/stats.h"

#include <gtest/gtest.h>

#include "src/base/json.h"

namespace gs {
namespace {

TEST(StatsTest, CounterStartsAtZeroAndIncrements) {
  StatsRegistry stats;
  stats.Enable();
  Counter* c = stats.GetCounter("requests_total");
  EXPECT_EQ(c->value(), 0);
  c->Inc();
  c->Inc(41);
  EXPECT_EQ(c->value(), 42);
}

TEST(StatsTest, GaugeSetAndAdd) {
  StatsRegistry stats;
  stats.Enable();
  Gauge* g = stats.GetGauge("queue_depth");
  g->Set(10);
  g->Add(-3);
  EXPECT_EQ(g->value(), 7);
}

TEST(StatsTest, HistogramObserves) {
  StatsRegistry stats;
  stats.Enable();
  HistogramMetric* h = stats.GetHistogram("latency_ns");
  for (int i = 1; i <= 100; ++i) {
    h->Observe(i * 1000);
  }
  EXPECT_EQ(h->histogram().count(), 100);
}

TEST(StatsTest, DisabledUpdatesHaveNoSideEffects) {
  StatsRegistry stats;  // disabled by default
  ASSERT_FALSE(stats.enabled());
  Counter* c = stats.GetCounter("c");
  Gauge* g = stats.GetGauge("g");
  HistogramMetric* h = stats.GetHistogram("h");
  c->Inc(100);
  g->Set(5);
  g->Add(5);
  h->Observe(123);
  EXPECT_EQ(c->value(), 0);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->histogram().count(), 0);
}

TEST(StatsTest, EnableDisableTogglesAtTheMetric) {
  StatsRegistry stats;
  Counter* c = stats.GetCounter("c");
  c->Inc();  // disabled: dropped
  stats.Enable();
  c->Inc();  // counted
  stats.Disable();
  c->Inc();  // dropped again
  EXPECT_EQ(c->value(), 1);
}

TEST(StatsTest, MetricsRegisteredBeforeOrWhileEnabledFollowEveryToggle) {
  // Registered before Enable(): records after it.
  StatsRegistry stats;
  Counter* c = stats.GetCounter("c");
  Gauge* g = stats.GetGauge("g");
  HistogramMetric* h = stats.GetHistogram("h");
  stats.Enable();
  c->Inc(2);
  g->Add(3);
  h->Observe(7);
  EXPECT_EQ(c->value(), 2);
  EXPECT_EQ(g->value(), 3);
  EXPECT_EQ(h->histogram().count(), 1);

  // Registered while enabled: records, then stops after Disable().
  Counter* late_c = stats.GetCounter("late_c");
  Gauge* late_g = stats.GetGauge("late_g");
  HistogramMetric* late_h = stats.GetHistogram("late_h");
  late_c->Inc();
  late_g->Set(4);
  late_h->Observe(9);
  stats.Disable();
  late_c->Inc();
  late_g->Set(8);
  late_h->Observe(9);
  c->Inc();
  EXPECT_EQ(late_c->value(), 1);
  EXPECT_EQ(late_g->value(), 4);
  EXPECT_EQ(late_h->histogram().count(), 1);
  EXPECT_EQ(c->value(), 2);
}

TEST(StatsTest, MergedInMetricsTakeTheCurrentState) {
  StatsRegistry source;
  source.Enable();
  source.GetCounter("from_source")->Inc(5);
  StatsRegistry off;
  off.MergeFrom(source);
  Counter* merged_off = off.GetCounter("from_source");
  merged_off->Inc();
  EXPECT_EQ(merged_off->value(), 5) << "a disabled registry's new metric records nothing";
  StatsRegistry on;
  on.Enable();
  on.MergeFrom(source);
  Counter* merged_on = on.GetCounter("from_source");
  merged_on->Inc();
  EXPECT_EQ(merged_on->value(), 6);
}

TEST(StatsTest, SameNameAndLabelsReturnsSameObject) {
  StatsRegistry stats;
  Counter* a = stats.GetCounter("txn_commit_total", {{"status", "ESTALE"}});
  Counter* b = stats.GetCounter("txn_commit_total", {{"status", "ESTALE"}});
  Counter* other = stats.GetCounter("txn_commit_total", {{"status", "OK"}});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, other);
}

TEST(StatsTest, LabelOrderDoesNotMatter) {
  StatsRegistry stats;
  Counter* a = stats.GetCounter("m", {{"a", "1"}, {"b", "2"}});
  Counter* b = stats.GetCounter("m", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(a, b);
}

TEST(StatsTest, FullNameFormatsSortedLabels) {
  EXPECT_EQ(StatsRegistry::FullName("ipi_total", {}), "ipi_total");
  EXPECT_EQ(StatsRegistry::FullName("txn_commit_total", {{"status", "ESTALE"}}),
            "txn_commit_total{status=ESTALE}");
  EXPECT_EQ(StatsRegistry::FullName("m", {{"z", "1"}, {"a", "2"}}),
            "m{a=2,z=1}");
}

TEST(StatsTest, ResetZeroesValuesButKeepsRegistrations) {
  StatsRegistry stats;
  stats.Enable();
  Counter* c = stats.GetCounter("c");
  Gauge* g = stats.GetGauge("g");
  HistogramMetric* h = stats.GetHistogram("h");
  c->Inc(7);
  g->Set(7);
  h->Observe(7);
  stats.Reset();
  EXPECT_EQ(c->value(), 0);
  EXPECT_EQ(g->value(), 0);
  EXPECT_EQ(h->histogram().count(), 0);
  // Same object after reset: cached pointers stay valid.
  EXPECT_EQ(stats.GetCounter("c"), c);
  c->Inc();
  EXPECT_EQ(c->value(), 1);
}

TEST(StatsTest, ToJsonParsesAndContainsMetrics) {
  StatsRegistry stats;
  stats.Enable();
  stats.GetCounter("msg_total", {{"type", "WAKEUP"}})->Inc(3);
  stats.GetGauge("depth")->Set(-2);
  stats.GetHistogram("lat")->Observe(1000);

  const std::string json = stats.ToJson();
  std::optional<JsonValue> doc = JsonValue::Parse(json);
  ASSERT_TRUE(doc.has_value());
  const JsonValue* counters = doc->Find("counters");
  ASSERT_NE(counters, nullptr);
  const JsonValue* msg = counters->Find("msg_total{type=WAKEUP}");
  ASSERT_NE(msg, nullptr);
  EXPECT_EQ(msg->number, 3);
  const JsonValue* gauges = doc->Find("gauges");
  ASSERT_NE(gauges, nullptr);
  EXPECT_EQ(gauges->Find("depth")->number, -2);
  const JsonValue* hists = doc->Find("histograms");
  ASSERT_NE(hists, nullptr);
  const JsonValue* lat = hists->Find("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->Find("count")->number, 1);
}

TEST(StatsTest, SnapshotIsDeterministic) {
  auto build = [] {
    StatsRegistry stats;
    stats.Enable();
    // Register in different orders; output must be byte-identical.
    stats.GetCounter("zebra")->Inc(1);
    stats.GetCounter("alpha")->Inc(2);
    return stats.ToJson();
  };
  auto build_reversed = [] {
    StatsRegistry stats;
    stats.Enable();
    stats.GetCounter("alpha")->Inc(2);
    stats.GetCounter("zebra")->Inc(1);
    return stats.ToJson();
  };
  EXPECT_EQ(build(), build_reversed());
}

// MergeFrom accumulates another registry's metrics into this one — the path
// a fleet run uses to fold per-machine registries into the harness registry.
TEST(StatsTest, MergeFromAccumulates) {
  StatsRegistry a;
  a.Enable();
  a.GetCounter("requests_total")->Inc(2);
  a.GetGauge("depth")->Set(1);
  a.GetHistogram("lat")->Observe(1000);

  StatsRegistry b;
  b.Enable();
  b.GetCounter("requests_total")->Inc(3);
  b.GetCounter("only_in_b")->Inc(1);
  b.GetGauge("depth")->Set(4);
  b.GetHistogram("lat")->Observe(3000);

  a.MergeFrom(b);
  EXPECT_EQ(a.GetCounter("requests_total")->value(), 5);
  EXPECT_EQ(a.GetCounter("only_in_b")->value(), 1);
  EXPECT_EQ(a.GetGauge("depth")->value(), 5);
  EXPECT_EQ(a.GetHistogram("lat")->histogram().count(), 2);
}

TEST(StatsTest, MixingMetricKindsOnOneNameDies) {
  StatsRegistry stats;
  stats.GetCounter("one_name");
  EXPECT_DEATH(stats.GetGauge("one_name"), "");
}

}  // namespace
}  // namespace gs
