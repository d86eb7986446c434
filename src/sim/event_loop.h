// Discrete-event simulation engine.
//
// The entire machine model runs on one virtual clock: every hardware and
// kernel action (timer tick, IPI delivery, context-switch completion, burst
// completion, watchdog scan) is an event. Events at equal timestamps fire in
// schedule order (stable FIFO), which together with seeded RNGs makes every
// experiment bit-for-bit reproducible.
//
// Implementation: a hierarchical timing wheel over a pooled slab of event
// slots, built for the simulator's delay distribution (100 ns–10 µs kernel
// and ghOSt latencies, 10–100 µs bursts, 1 ms periodic ticks):
//
//  * Level 0 is 4096 exact 1 ns slots (a 4.096 µs span) behind a two-level
//    occupancy bitmap; levels 1..9 have 64 slots each, so level L >= 1 has
//    4096 * 64^(L-1) ns resolution and the ten levels cover any int64
//    horizon. IPIs, context switches and most latch delays land directly in
//    their final bucket. A level-0 bucket holds only events with identical
//    timestamps. Every bucket is a circular doubly linked list in sequence-
//    number order: events append at the tail, a new one having the highest
//    seq yet, and a cascade refills the (empty) lower levels in the order of
//    the slot it empties. An instant fires from its bucket's head, so global
//    (time, seq) FIFO holds regardless of which levels an event cascaded
//    through, and an event scheduled at now() joins the tail of the instant
//    being fired.
//  * EventId = (slot generation << 32) | slot index, so Cancel() and
//    Reschedule() are O(1) — no hash lookups, no tombstones on the pop path.
//  * Callbacks live apart from the 32-byte slot metadata the wheel walks, in
//    fixed chunks of 32 that never move. Schedule* are templates that build
//    the callable directly in its chunk entry (InlineFunction::Emplace, no
//    heap fallback), and the loop calls it there, so a callback is never
//    moved and may grow the slot table while it runs. Slots are recycled
//    through a free list: steady-state scheduling never allocates.
//  * A one-shot event's id dies (its generation bumps) just before its
//    callback runs, so Cancel(own id) inside the callback returns false; the
//    slot rejoins the free list, captures released, right after the call.
//  * SchedulePeriodic() re-arms in place after each firing (same id, fresh
//    seq). The re-arm draws its sequence number *after* the callback returns,
//    exactly as a self-rescheduling callback would, so converting a call site
//    does not perturb tie-break order.
//  * Reschedule(id, when) moves a pending one-shot event, keeping its id and
//    callback, and draws a fresh seq at exactly the point where Cancel(id)
//    followed by ScheduleAt(when, same callback) would: the two are
//    indistinguishable in firing order. It refuses (returns false) an event
//    of the instant being fired; callers then Cancel and Schedule.
//
// work() exposes plain counts of the engine's work. For a given program they
// are the same on every host; they are not StatsRegistry metrics.
//
// The previous binary-heap engine survives as ReferenceEventLoop
// (src/sim/reference_event_loop.h) for differential testing.
#ifndef GHOST_SIM_SRC_SIM_EVENT_LOOP_H_
#define GHOST_SIM_SRC_SIM_EVENT_LOOP_H_

#include <array>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "src/base/inline_callback.h"
#include "src/base/logging.h"
#include "src/base/time.h"

namespace gs {

// Opaque handle for cancelling a scheduled event. 0 is never a valid id.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

// Schedule-space exploration hook (src/verify/explorer). When installed on an
// EventLoop, the oracle — not the default FIFO tie-break — decides which of
// several events that are ready at the same timestamp fires next. Candidates
// are presented in seq (default FIFO) order, so an oracle that always returns
// 0 reproduces the default schedule exactly. The oracle must not mutate the
// loop from inside Pick().
class ScheduleOracle {
 public:
  struct Candidate {
    uint64_t tag = 0;  // dependence tag supplied at Schedule* time; 0 = none
    uint64_t seq = 0;  // global FIFO sequence number (strictly increasing)
  };

  virtual ~ScheduleOracle() = default;

  // Chooses which candidate fires next among >= 2 events ready at `when`.
  // Must return an index < candidates.size().
  virtual size_t Pick(Time when,
                      const std::vector<Candidate>& candidates) = 0;
};

class EventLoop {
 public:
  // Level 0 spans this many nanoseconds in exact 1 ns slots.
  static constexpr Duration kLevel0Span = 4096;

  // Counts of the engine's work since construction.
  struct Work {
    uint64_t scheduled_zero = 0;  // Schedule* with delay 0
    uint64_t scheduled_near = 0;  // delay in (0, kLevel0Span)
    uint64_t scheduled_far = 0;   // delay >= kLevel0Span
    uint64_t fired = 0;
    uint64_t cancelled = 0;    // Cancel() calls that returned true
    uint64_t rescheduled = 0;  // Reschedule() calls that returned true
    // Direct wheel inserts: schedules, periodic re-arms and reschedules,
    // except those into the instant being fired.
    uint64_t wheel_inserts = 0;
    uint64_t cascade_reinserts = 0;  // moves of an event down a level

    uint64_t scheduled() const {
      return scheduled_zero + scheduled_near + scheduled_far;
    }
  };

  EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  Time now() const { return now_; }

  // Schedules `fn` to run at absolute time `when` (must be >= now()). `fn`
  // is any void() callable that fits InlineCallback; it is constructed in
  // place in the event's callback slot.
  //
  // `tag` is an optional dependence label handed to an installed
  // ScheduleOracle (see src/sim/sched_tag.h for the taxonomy); it has no
  // effect on execution and defaults to 0 (unclassified).
  template <typename F>
  EventId ScheduleAt(Time when, F&& fn, uint64_t tag = 0) {
    return Schedule(when, /*period=*/0, std::forward<F>(fn), tag);
  }

  // Schedules `fn` to run `delay` from now.
  template <typename F>
  EventId ScheduleAfter(Duration delay, F&& fn, uint64_t tag = 0) {
    CHECK_GE(delay, 0);
    return Schedule(now_ + delay, /*period=*/0, std::forward<F>(fn), tag);
  }

  // Schedules `fn` to fire first at `first` and then every `period` after
  // each firing, re-arming in place: the returned id stays valid (and
  // cancellable) across firings. Cancelling from inside the callback stops
  // the re-arm.
  template <typename F>
  EventId SchedulePeriodicAt(Time first, Duration period, F&& fn,
                             uint64_t tag = 0) {
    CHECK_GT(period, 0);
    return Schedule(first, period, std::forward<F>(fn), tag);
  }

  template <typename F>
  EventId SchedulePeriodic(Duration initial_delay, Duration period, F&& fn,
                           uint64_t tag = 0) {
    CHECK_GE(initial_delay, 0);
    return SchedulePeriodicAt(now_ + initial_delay, period,
                              std::forward<F>(fn), tag);
  }

  // Installs (or clears, with nullptr) the schedule-exploration oracle. The
  // oracle is consulted only when two or more live events are ready at the
  // same timestamp; with none installed the loop fires in (time, seq) order.
  void set_oracle(ScheduleOracle* oracle) { oracle_ = oracle; }
  ScheduleOracle* oracle() const { return oracle_; }

  // Cancels a pending event. Returns true if the event existed and had not
  // yet fired; false (and no effect) for already-fired, already-cancelled,
  // or unknown ids. For a periodic event, "fired" means fully cancelled:
  // cancelling during or after any individual firing still returns true and
  // stops future firings.
  bool Cancel(EventId id);

  // Moves a pending one-shot event to `when` (>= now()). The id and callback
  // stay; the event draws a fresh seq now, so it fires exactly where
  // Cancel(id) + ScheduleAt(when, <same callback>) would have put it.
  // Returns false, changing nothing, for a fired, cancelled, unknown or
  // periodic event, and for one of the instant being fired; the caller then
  // cancels and schedules anew.
  bool Reschedule(EventId id, Time when);

  // Runs the next pending event, advancing the clock. Returns false if idle.
  bool RunOne();

  // Runs until the clock reaches `deadline` (events at exactly `deadline`
  // included) or the queue drains.
  void RunUntil(Time deadline);

  void RunFor(Duration d) { RunUntil(now_ + d); }

  // Runs events until the queue is empty. (Never returns while a periodic
  // event is armed.)
  void RunUntilIdle();

  bool empty() const { return pending_count_ == 0; }
  size_t pending_count() const { return pending_count_; }
  uint64_t executed_count() const { return work_.fired; }
  const Work& work() const { return work_; }

 private:
  static constexpr int kLevel0Bits = 12;
  static constexpr int kLevel0Slots = 1 << kLevel0Bits;  // 4096
  static_assert(kLevel0Slots == kLevel0Span);
  static constexpr int kUpperBits = 6;
  static constexpr int kUpperSlots = 1 << kUpperBits;  // 64
  // 12 + 9 * 6 = 66 bits > 63: enough levels for any int64 timestamp.
  static constexpr int kUpperLevels = 9;
  static constexpr int kNumBuckets = kLevel0Slots + kUpperLevels * kUpperSlots;
  static constexpr uint32_t kNil = 0xffffffffu;
  static constexpr int kChunkBits = 5;
  static constexpr uint32_t kChunkSize = 1u << kChunkBits;  // 32 callbacks

  enum class SlotState : uint8_t {
    kFree,             // on the free list
    kInWheel,          // linked into a wheel bucket
    kFiring,           // callback running (a one-shot's id is already dead)
    kFiringCancelled,  // periodic cancelled from its own callback: no re-arm
  };

  // What the wheel walks, 32 bytes. The rest of the event sits at the same
  // index in bodies_.
  struct EventSlot {
    Time when = 0;
    uint64_t seq = 0;    // tiebreaker: FIFO among equal timestamps
    uint32_t gen = 1;    // bumped when the id dies; stale ids fail the match
    uint32_t next = kNil;  // bucket ring when kInWheel; free list when kFree
    uint32_t prev = kNil;
    uint16_t bucket = 0;   // which wheel bucket holds this slot (for unlink)
    SlotState state = SlotState::kFree;
    bool periodic = false;
  };

  // What only scheduling and firing touch: two cache lines, with a capture
  // of up to 32 bytes in the first beside the period and the call pointer.
  struct alignas(64) EventBody {
    Duration period = 0;  // > 0 => periodic
    uint64_t tag = 0;     // dependence label for ScheduleOracle (0 = none)
    InlineCallback fn;
  };

  static_assert(sizeof(EventSlot) == 32);
  static_assert(sizeof(EventBody) == 128);

  struct BodyChunk {
    std::array<EventBody, kChunkSize> bodies;
  };

  struct WheelPos {
    int level;
    int slot;
    Time start;  // start of the slot's time range (== event time at level 0)
  };

  static EventId MakeId(uint32_t idx, uint32_t gen) {
    return (static_cast<EventId>(gen) << 32) | idx;
  }

  template <typename F>
  EventId Schedule(Time when, Duration period, F&& fn, uint64_t tag) {
    const uint32_t idx = NewEvent(when, period, tag);
    BodyOf(idx).fn.Emplace(std::forward<F>(fn));
    Enqueue(idx);
    return MakeId(idx, slots_[idx].gen);
  }

  EventBody& BodyOf(uint32_t idx) {
    return bodies_[idx >> kChunkBits]->bodies[idx & (kChunkSize - 1)];
  }

  // Wheel level of an event whose timestamp first differs from the cursor in
  // the bits of `delta` (timestamp XOR cursor): 0 within the cursor's level-0
  // block, else one level per further kUpperBits bits.
  static int LevelForDelta(uint64_t delta);
  // Lowest timestamp bit of the slot digit at `level`.
  static int LevelShift(int level);
  // Takes a slot for an event at `when` and draws its seq.
  uint32_t NewEvent(Time when, Duration period, uint64_t tag);
  // Links a fresh or rescheduled event into the wheel, counting it as a
  // wheel insert unless it joins the instant being fired.
  void Enqueue(uint32_t idx) {
    work_.wheel_inserts += slots_[idx].when != instant_;
    InsertIntoWheel(idx);
  }
  uint32_t AllocSlot();
  // Kills the slot's current id. Generation 0 is skipped so that
  // MakeId(0, gen) never equals kInvalidEventId.
  static void RetireId(EventSlot& s) {
    if (++s.gen == 0) {
      s.gen = 1;
    }
  }
  // Releases the callback and pushes the slot onto the free list.
  void Recycle(uint32_t idx);
  void InsertIntoWheel(uint32_t idx);
  void UnlinkFromWheel(uint32_t idx);
  void MarkOccupied(int bucket);
  void MarkEmpty(int bucket);
  // Lowest-level occupied wheel slot at/after the cursor. Requires
  // wheel_count_ > 0.
  WheelPos NextOccupiedSlot() const;
  // Moves the wheel cursor to `pos`: a level-0 slot becomes the instant
  // being fired, a higher one cascades its events down a level.
  void Advance(const WheelPos& pos);
  // The head of the instant's bucket, or kNil when the instant is over.
  uint32_t InstantHead() const {
    return instant_ == kNoInstant ? kNil
                                  : buckets_[instant_ & (kLevel0Slots - 1)];
  }
  // Fires the instant's next event: the bucket head, or whichever event of
  // the bucket the installed oracle picks.
  void FireNext(uint32_t head);

  Time now_ = 0;
  // Wheel cursor time: <= every event resident in the wheel. Lags now_ when
  // the wheel is sparse; re-anchored to now_ whenever the wheel empties.
  Time wheel_time_ = 0;
  uint64_t next_seq_ = 0;
  size_t pending_count_ = 0;  // live (scheduled, unfired) events
  size_t wheel_count_ = 0;    // live events resident in the wheel
  Work work_;

  std::vector<EventSlot> slots_;
  // Chunks never move, so a running callback stays put while slots_ grows.
  std::vector<std::unique_ptr<BodyChunk>> bodies_;
  uint32_t free_head_ = kNil;

  // Head slot of each bucket's ring (kNil when empty): level-0 buckets
  // first, then kUpperSlots per upper level.
  std::array<uint32_t, kNumBuckets> buckets_;
  // Level-0 occupancy: bit s%64 of word s/64 per slot s, and bit w of the
  // summary when word w is nonzero.
  std::array<uint64_t, kLevel0Slots / 64> occupied0_{};
  uint64_t occupied0_summary_ = 0;
  std::array<uint64_t, kUpperLevels> occupied_{};  // levels 1..kUpperLevels

  // The instant being fired: from the moment the run loop reaches its
  // level-0 bucket until it finds that bucket empty. Events scheduled at it
  // join the bucket's tail and fire in it.
  static constexpr Time kNoInstant = -1;
  Time instant_ = kNoInstant;

  ScheduleOracle* oracle_ = nullptr;
  // Scratch buffers for oracle candidate collection (avoid reallocation).
  std::vector<ScheduleOracle::Candidate> oracle_cands_;
  std::vector<uint32_t> oracle_slots_;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_SIM_EVENT_LOOP_H_
