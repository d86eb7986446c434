// Unit tests for the discrete-event engine.
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/sim/event_loop.h"

namespace gs {
namespace {

TEST(EventLoopTest, RunsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(30, [&] { order.push_back(3); });
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.ScheduleAt(20, [&] { order.push_back(2); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoopTest, EqualTimesFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    loop.ScheduleAt(5, [&order, i] { order.push_back(i); });
  }
  loop.RunUntilIdle();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(EventLoopTest, CancelPreventsExecution) {
  EventLoop loop;
  bool ran = false;
  const EventId id = loop.ScheduleAt(10, [&] { ran = true; });
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_FALSE(loop.Cancel(id)) << "double cancel is a no-op";
  loop.RunUntilIdle();
  EXPECT_FALSE(ran);
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoopTest, CancelInvalidId) {
  EventLoop loop;
  EXPECT_FALSE(loop.Cancel(kInvalidEventId));
  EXPECT_FALSE(loop.Cancel(12345));
}

TEST(EventLoopTest, EventsMayScheduleEvents) {
  EventLoop loop;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) {
      loop.ScheduleAfter(10, recurse);
    }
  };
  loop.ScheduleAfter(0, recurse);
  loop.RunUntilIdle();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(loop.now(), 40);
}

TEST(EventLoopTest, RunUntilStopsAtDeadline) {
  EventLoop loop;
  int count = 0;
  for (Time t = 10; t <= 100; t += 10) {
    loop.ScheduleAt(t, [&] { ++count; });
  }
  loop.RunUntil(50);
  EXPECT_EQ(count, 5) << "events at exactly the deadline are included";
  EXPECT_EQ(loop.now(), 50);
  loop.RunUntil(200);
  EXPECT_EQ(count, 10);
  EXPECT_EQ(loop.now(), 200) << "clock advances to the deadline even when idle";
}

TEST(EventLoopTest, RunOneReturnsFalseWhenEmpty) {
  EventLoop loop;
  EXPECT_FALSE(loop.RunOne());
  loop.ScheduleAfter(1, [] {});
  EXPECT_TRUE(loop.RunOne());
  EXPECT_FALSE(loop.RunOne());
}

TEST(EventLoopTest, CancelDuringExecution) {
  EventLoop loop;
  bool second_ran = false;
  EventId second = kInvalidEventId;
  loop.ScheduleAt(10, [&] { loop.Cancel(second); });
  second = loop.ScheduleAt(20, [&] { second_ran = true; });
  loop.RunUntilIdle();
  EXPECT_FALSE(second_ran);
}

TEST(EventLoopTest, CancelOfFiredIdFailsEvenAfterSlotReuse) {
  EventLoop loop;
  bool a_ran = false, b_ran = false;
  const EventId a = loop.ScheduleAt(10, [&] { a_ran = true; });
  loop.RunUntilIdle();
  EXPECT_TRUE(a_ran);
  EXPECT_FALSE(loop.Cancel(a)) << "fired id must be dead";
  // B reuses A's pooled slot; A's id must still be dead (generation bump).
  const EventId b = loop.ScheduleAt(20, [&] { b_ran = true; });
  EXPECT_FALSE(loop.Cancel(a)) << "stale id must not cancel the slot's new tenant";
  loop.RunUntilIdle();
  EXPECT_TRUE(b_ran);
  EXPECT_FALSE(loop.Cancel(b));
}

TEST(EventLoopTest, CancelInsideCallbackOfSameTimestampEvent) {
  // Both events sit in the bucket of the instant being fired; the first
  // callback cancels the second, which is already due in that instant.
  EventLoop loop;
  bool second_ran = false;
  EventId second = kInvalidEventId;
  loop.ScheduleAt(10, [&] { EXPECT_TRUE(loop.Cancel(second)); });
  second = loop.ScheduleAt(10, [&] { second_ran = true; });
  loop.RunUntilIdle();
  EXPECT_FALSE(second_ran);
  EXPECT_EQ(loop.executed_count(), 1u);
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoopTest, SameTimestampFifoAcrossWheelLevels) {
  // Events landing in the same instant must fire in schedule order even when
  // they entered the wheel at different levels: the first is scheduled far
  // ahead (high level, cascades down), the second near (low level).
  EventLoop loop;
  std::vector<int> order;
  const Time target = 1 << 20;
  loop.ScheduleAt(target, [&] { order.push_back(0); });  // far: high level
  loop.RunUntil(target - 64);  // advance so the next insert is level 0/1
  loop.ScheduleAt(target, [&] { order.push_back(1); });  // near: low level
  loop.ScheduleAt(target, [&] { order.push_back(2); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}))
      << "cascades must not reorder same-timestamp events";
}

TEST(EventLoopTest, ScheduleZeroDelayInsideCallbackFiresSameInstant) {
  EventLoop loop;
  std::vector<int> order;
  loop.ScheduleAt(10, [&] {
    order.push_back(0);
    loop.ScheduleAfter(0, [&] { order.push_back(2); });  // after remaining t=10 work
  });
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.ScheduleAt(11, [&] { order.push_back(3); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(loop.now(), 11);
}

TEST(EventLoopTest, PeriodicFiresAtExactPeriods) {
  EventLoop loop;
  std::vector<Time> fires;
  loop.SchedulePeriodic(/*initial_delay=*/7, /*period=*/10,
                        [&] { fires.push_back(loop.now()); });
  loop.RunUntil(40);
  EXPECT_EQ(fires, (std::vector<Time>{7, 17, 27, 37}));
  EXPECT_EQ(loop.pending_count(), 1u) << "periodic stays armed";
}

TEST(EventLoopTest, PeriodicIdStaysValidAcrossFirings) {
  EventLoop loop;
  int fires = 0;
  const EventId id = loop.SchedulePeriodic(5, 5, [&] { ++fires; });
  loop.RunUntil(23);
  EXPECT_EQ(fires, 4);
  EXPECT_TRUE(loop.Cancel(id)) << "the handle must survive re-arms";
  EXPECT_FALSE(loop.Cancel(id));
  loop.RunUntil(100);
  EXPECT_EQ(fires, 4);
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoopTest, PeriodicCancelInsideOwnCallbackStopsRearm) {
  EventLoop loop;
  int fires = 0;
  EventId id = kInvalidEventId;
  id = loop.SchedulePeriodic(5, 5, [&] {
    if (++fires == 3) {
      EXPECT_TRUE(loop.Cancel(id));
      EXPECT_FALSE(loop.Cancel(id)) << "second cancel while firing is a no-op";
    }
  });
  loop.RunUntil(1000);
  EXPECT_EQ(fires, 3);
  EXPECT_EQ(loop.pending_count(), 0u);
  EXPECT_FALSE(loop.Cancel(id));
}

TEST(EventLoopTest, SchedulePeriodicAtAbsoluteFirstFire) {
  EventLoop loop;
  std::vector<Time> fires;
  loop.RunUntil(100);
  const EventId id =
      loop.SchedulePeriodicAt(150, 25, [&] { fires.push_back(loop.now()); });
  loop.RunUntil(210);
  EXPECT_EQ(fires, (std::vector<Time>{150, 175, 200}));
  EXPECT_TRUE(loop.Cancel(id));
}

TEST(EventLoopTest, CallbackCapturesReleasedAfterFire) {
  EventLoop loop;
  auto token = std::make_shared<int>(42);
  long use_count_seen_next = -1;
  loop.ScheduleAt(10, [token] { (void)*token; });
  loop.ScheduleAt(10, [&] { use_count_seen_next = token.use_count(); });
  EXPECT_EQ(token.use_count(), 2) << "the pending event keeps the capture alive";
  loop.RunUntilIdle();
  EXPECT_EQ(use_count_seen_next, 1)
      << "a fired event must drop its captures before the next event runs";
}

TEST(EventLoopTest, CallbackCapturesReleasedOnCancel) {
  EventLoop loop;
  auto token = std::make_shared<int>(7);
  std::weak_ptr<int> watch = token;
  const EventId id = loop.ScheduleAt(10, [token] { (void)*token; });
  token.reset();
  EXPECT_TRUE(loop.Cancel(id));
  EXPECT_TRUE(watch.expired()) << "cancelled events must drop captures promptly";
}

TEST(EventLoopTest, PendingCountTracksLiveEvents) {
  EventLoop loop;
  const EventId a = loop.ScheduleAfter(10, [] {});
  loop.ScheduleAfter(20, [] {});
  EXPECT_EQ(loop.pending_count(), 2u);
  loop.Cancel(a);
  EXPECT_EQ(loop.pending_count(), 1u);
  loop.RunUntilIdle();
  EXPECT_EQ(loop.pending_count(), 0u);
  EXPECT_EQ(loop.executed_count(), 1u);
}

TEST(EventLoopTest, CancelOwnIdInsideOneShotReturnsFalse) {
  EventLoop loop;
  EventId self = kInvalidEventId;
  bool cancel_result = true;
  bool reschedule_result = true;
  self = loop.ScheduleAt(10, [&] {
    cancel_result = loop.Cancel(self);
    reschedule_result = loop.Reschedule(self, 20);
  });
  loop.RunUntilIdle();
  EXPECT_FALSE(cancel_result) << "a running one-shot has already fired";
  EXPECT_FALSE(reschedule_result);
  EXPECT_EQ(loop.executed_count(), 1u);
  EXPECT_EQ(loop.now(), 10);
}

TEST(EventLoopTest, CallbackThatGrowsTheSlotTableCompletes) {
  // The running callback lives in a callback chunk that never moves, so it
  // may schedule enough events to add chunks and regrow the slot metadata.
  EventLoop loop;
  std::array<uint64_t, 8> payload = {1, 2, 3, 4, 5, 6, 7, 8};
  uint64_t sum_after_growth = 0;
  int fired = 0;
  loop.ScheduleAt(5, [&loop, &sum_after_growth, &fired, payload] {
    for (int i = 0; i < 1000; ++i) {
      loop.ScheduleAfter(1 + i % 7, [&fired] { ++fired; });
    }
    for (uint64_t v : payload) {
      sum_after_growth += v;  // reads the capture after the growth
    }
  });
  loop.RunUntilIdle();
  EXPECT_EQ(sum_after_growth, 36u);
  EXPECT_EQ(fired, 1000);
  EXPECT_EQ(loop.executed_count(), 1001u);
  EXPECT_EQ(loop.pending_count(), 0u);
}

TEST(EventLoopTest, DelaysAroundTheLevelZeroSpanFireExactly) {
  // 4095 ns stays inside level 0 from a block-aligned cursor, 4096 and 4097
  // are the first delays that must go up a level and cascade back down.
  for (Time start : {Time{0}, Time{1}, Time{4000}, Time{4095}, Time{4096}}) {
    EventLoop loop;
    loop.RunUntil(start);
    std::vector<Time> fires;
    for (Duration d : {4097, 4095, 4096, 1, 0}) {
      loop.ScheduleAfter(d, [&] { fires.push_back(loop.now() - start); });
    }
    loop.RunUntilIdle();
    EXPECT_EQ(fires, (std::vector<Time>{0, 1, 4095, 4096, 4097})) << "start " << start;
  }
}

TEST(EventLoopTest, CursorCrossingA4096Boundary) {
  // The cursor sits just below a 4096 ns block edge; events on both sides
  // of the edge, and one a full block beyond it, keep exact order.
  EventLoop loop;
  std::vector<int> order;
  loop.RunUntil(4090);
  loop.ScheduleAt(8192, [&] { order.push_back(4); });
  loop.ScheduleAt(4096, [&] { order.push_back(2); });
  loop.ScheduleAt(4095, [&] { order.push_back(1); });
  loop.ScheduleAt(4097, [&] { order.push_back(3); });
  loop.ScheduleAt(4096, [&] {
    order.push_back(20);
    loop.ScheduleAfter(4096, [&] { order.push_back(5); });  // 8192, after 4
  });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 20, 3, 4, 5}));
  EXPECT_EQ(loop.now(), 8192);
}

TEST(EventLoopTest, RescheduleKeepsTheIdAndDrawsAFreshSeq) {
  EventLoop loop;
  std::vector<int> order;
  const EventId a = loop.ScheduleAt(10, [&] { order.push_back(0); });
  loop.ScheduleAt(20, [&] { order.push_back(1); });
  EXPECT_TRUE(loop.Reschedule(a, 20));
  // A fresh seq: `a` now follows the event that was scheduled after it.
  loop.ScheduleAt(20, [&] { order.push_back(2); });
  EXPECT_EQ(loop.pending_count(), 3u);
  EXPECT_EQ(loop.work().rescheduled, 1u);
  loop.RunUntil(15);
  EXPECT_TRUE(order.empty()) << "the old time must not fire";
  EXPECT_TRUE(loop.Reschedule(a, 30)) << "the id survives a reschedule";
  EXPECT_TRUE(loop.Reschedule(a, 20));
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
  EXPECT_FALSE(loop.Cancel(a));
}

TEST(EventLoopTest, RescheduleRefusesFiredCancelledPeriodicAndReadyEvents) {
  EventLoop loop;
  const EventId fired = loop.ScheduleAt(5, [] {});
  loop.RunUntil(5);
  EXPECT_FALSE(loop.Reschedule(fired, 10)) << "fired";

  const EventId cancelled = loop.ScheduleAt(20, [] {});
  ASSERT_TRUE(loop.Cancel(cancelled));
  EXPECT_FALSE(loop.Reschedule(cancelled, 30)) << "cancelled";

  int periodic_fires = 0;
  const EventId periodic = loop.SchedulePeriodic(10, 10, [&] { ++periodic_fires; });
  EXPECT_FALSE(loop.Reschedule(periodic, 12)) << "periodic";

  // Both events sit in the ready list of t=40 once the first fires.
  bool ready_result = true;
  EventId second = kInvalidEventId;
  loop.ScheduleAt(40, [&] { ready_result = loop.Reschedule(second, 50); });
  bool second_ran_at_40 = false;
  second = loop.ScheduleAt(40, [&] { second_ran_at_40 = loop.now() == 40; });
  loop.RunUntil(45);
  EXPECT_FALSE(ready_result) << "in the ready list";
  EXPECT_TRUE(second_ran_at_40) << "a refused reschedule changes nothing";
  EXPECT_EQ(periodic_fires, 4);  // 15, 25, 35, 45
  EXPECT_FALSE(loop.Reschedule(kInvalidEventId, 50));
  EXPECT_EQ(loop.work().rescheduled, 0u);
}

TEST(EventLoopTest, RescheduleIntoTheInstantBeingFiredRunsAfterItsEvents) {
  // Cancel + ScheduleAt(now) would join the tail of the instant's bucket, so
  // a reschedule to now() must land behind the events already there.
  EventLoop loop;
  std::vector<int> order;
  const EventId later = loop.ScheduleAt(100, [&] { order.push_back(9); });
  loop.ScheduleAt(10, [&] {
    order.push_back(0);
    EXPECT_TRUE(loop.Reschedule(later, loop.now()));
  });
  loop.ScheduleAt(10, [&] { order.push_back(1); });
  loop.RunUntilIdle();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 9}));
  EXPECT_EQ(loop.now(), 10);
}

TEST(EventLoopTest, ScheduleAtNowFromTheLastEventOfAnInstantFiresInIt) {
  EventLoop loop;
  std::vector<std::pair<int, Time>> fires;
  loop.ScheduleAt(10, [&] { fires.emplace_back(0, loop.now()); });
  loop.ScheduleAt(10, [&] {
    fires.emplace_back(1, loop.now());
    loop.ScheduleAt(loop.now(), [&] { fires.emplace_back(2, loop.now()); });
  });
  loop.ScheduleAt(11, [&] { fires.emplace_back(3, loop.now()); });
  loop.RunUntil(10);
  EXPECT_EQ(fires, (std::vector<std::pair<int, Time>>{{0, 10}, {1, 10}, {2, 10}}));
  EXPECT_EQ(loop.work().wheel_inserts, 3u)
      << "joining the instant being fired is not a wheel insert";
  loop.RunUntilIdle();
  EXPECT_EQ(fires.back(), (std::pair<int, Time>{3, 11}));
}

TEST(EventLoopTest, CascadedEventPrecedesNewerDirectInsertsAtItsTimestamp) {
  // `t` is one or two levels above level 0 from the start. The event at t-1
  // shares t's level-0 block, so when it fires the events it schedules at t
  // are direct level-0 inserts, behind the older event that cascaded there.
  for (Time t : {3 * EventLoop::kLevel0Span + 5, 64 * EventLoop::kLevel0Span + 5}) {
    EventLoop loop;
    std::vector<int> order;
    loop.ScheduleAt(t, [&] { order.push_back(0); });
    loop.ScheduleAt(t - 1, [&] {
      loop.ScheduleAt(t, [&] { order.push_back(1); });
      loop.ScheduleAt(t, [&] { order.push_back(2); });
    });
    loop.RunUntilIdle();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2})) << "t " << t;
    EXPECT_GE(loop.work().cascade_reinserts, 2u) << "t " << t;
    EXPECT_EQ(loop.now(), t);
  }
}

// A seeded mix of every engine operation, with delays from 0 to 4 ms. Its
// counts are pinned exactly: they depend only on the program, not the host,
// so a change to the engine that adds work shows here as a count.
TEST(EventLoopWorkTest, CountsOfASeededMixArePinned) {
  EventLoop loop;
  Rng rng(2021);
  std::vector<EventId> live(64, kInvalidEventId);
  std::function<void()> step;
  int remaining = 20000;
  step = [&] {
    if (--remaining <= 0) {
      return;
    }
    const uint64_t dice = rng.NextBounded(100);
    Duration delay;
    if (dice < 25) {
      delay = 0;
    } else if (dice < 60) {
      delay = static_cast<Duration>(100 + rng.NextBounded(600));
    } else if (dice < 80) {
      delay = static_cast<Duration>(1000 + rng.NextBounded(9000));
    } else {
      delay = static_cast<Duration>(10000 + rng.NextBounded(4000000));
    }
    EventId& victim = live[rng.NextBounded(live.size())];
    const uint64_t action = rng.NextBounded(10);
    if (action < 2) {
      loop.Cancel(victim);
    } else if (action < 5 && !loop.Reschedule(victim, loop.now() + delay)) {
      loop.Cancel(victim);
      victim = loop.ScheduleAfter(delay, [&step] { step(); });
      return;
    }
    loop.ScheduleAfter(delay, [&step] { step(); });
    victim = loop.ScheduleAfter(delay + 500, [&step] { step(); });
  };
  loop.SchedulePeriodic(1000000, 1000000, [] {});
  for (int i = 0; i < 16; ++i) {
    loop.ScheduleAfter(i * 37, [&step] { step(); });
  }
  loop.RunUntil(50000000);

  const EventLoop::Work& w = loop.work();
  EXPECT_EQ(w.scheduled_zero, 4967u);
  EXPECT_EQ(w.scheduled_near, 21518u);
  EXPECT_EQ(w.scheduled_far, 13466u);
  EXPECT_EQ(w.fired, 36041u);
  EXPECT_EQ(w.cancelled, 3959u);
  EXPECT_EQ(w.rescheduled, 5908u);
  EXPECT_EQ(w.wheel_inserts, 39472u);
  EXPECT_EQ(w.cascade_reinserts, 21587u);
  EXPECT_EQ(w.fired, loop.executed_count());
}

}  // namespace
}  // namespace gs
