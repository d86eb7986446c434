#include "src/sim/event_loop.h"

#include <utility>

namespace gs {

int EventLoop::LevelForDelta(uint64_t delta) {
  if (delta < kLevel0Slots) {
    return 0;
  }
  return 1 + (63 - __builtin_clzll(delta) - kLevel0Bits) / kUpperBits;
}

int EventLoop::LevelShift(int level) {
  return level == 0 ? 0 : kLevel0Bits + kUpperBits * (level - 1);
}

EventLoop::EventLoop() { buckets_.fill(kNil); }

uint32_t EventLoop::AllocSlot() {
  if (free_head_ != kNil) {
    const uint32_t idx = free_head_;
    free_head_ = slots_[idx].next;
    return idx;
  }
  CHECK_LT(slots_.size(), static_cast<size_t>(kNil)) << "event slab exhausted";
  const auto idx = static_cast<uint32_t>(slots_.size());
  if (idx % kChunkSize == 0) {
    bodies_.push_back(std::make_unique<BodyChunk>());
  }
  slots_.emplace_back();
  return idx;
}

void EventLoop::Recycle(uint32_t idx) {
  BodyOf(idx).fn.Reset();  // release captures promptly (shared_ptr chains etc.)
  EventSlot& s = slots_[idx];
  s.state = SlotState::kFree;
  s.prev = kNil;
  s.next = free_head_;
  free_head_ = idx;
}

uint32_t EventLoop::NewEvent(Time when, Duration period, uint64_t tag) {
  CHECK_GE(when, now_) << "cannot schedule into the past";
  const Duration delay = when - now_;
  // Branch-free: delay - 1 wraps to a huge value for delay 0.
  work_.scheduled_zero += delay == 0;
  work_.scheduled_near += static_cast<uint64_t>(delay - 1) < kLevel0Span - 1;
  work_.scheduled_far += delay >= kLevel0Span;
  const uint32_t idx = AllocSlot();
  EventSlot& s = slots_[idx];
  s.when = when;
  s.seq = next_seq_++;
  s.periodic = period > 0;
  EventBody& body = BodyOf(idx);
  body.period = period;
  body.tag = tag;
  ++pending_count_;
  return idx;
}

void EventLoop::MarkOccupied(int bucket) {
  if (bucket < kLevel0Slots) {
    occupied0_[bucket / 64] |= uint64_t{1} << (bucket % 64);
    occupied0_summary_ |= uint64_t{1} << (bucket / 64);
  } else {
    const int upper = bucket - kLevel0Slots;
    occupied_[upper / kUpperSlots] |= uint64_t{1} << (upper % kUpperSlots);
  }
}

void EventLoop::MarkEmpty(int bucket) {
  if (bucket < kLevel0Slots) {
    uint64_t& word = occupied0_[bucket / 64];
    word &= ~(uint64_t{1} << (bucket % 64));
    if (word == 0) {
      occupied0_summary_ &= ~(uint64_t{1} << (bucket / 64));
    }
  } else {
    const int upper = bucket - kLevel0Slots;
    occupied_[upper / kUpperSlots] &= ~(uint64_t{1} << (upper % kUpperSlots));
  }
}

void EventLoop::InsertIntoWheel(uint32_t idx) {
  if (wheel_count_ == 0 && now_ > wheel_time_) {
    // Re-anchor an empty wheel so sparse workloads don't pay cascades for
    // the full distance back to the last processed bucket. Forward only:
    // mid-cascade the wheel position can be ahead of now_, and rewinding it
    // would undo the cascade's progress.
    wheel_time_ = now_;
  }
  EventSlot& s = slots_[idx];
  const auto when = static_cast<uint64_t>(s.when);
  const int level = LevelForDelta(when ^ static_cast<uint64_t>(wheel_time_));
  int bucket;
  if (level == 0) {
    bucket = static_cast<int>(when & (kLevel0Slots - 1));
  } else {
    bucket = kLevel0Slots + (level - 1) * kUpperSlots +
             static_cast<int>((when >> LevelShift(level)) & (kUpperSlots - 1));
  }
  s.state = SlotState::kInWheel;
  s.bucket = static_cast<uint16_t>(bucket);
  ++wheel_count_;
  uint32_t& head = buckets_[bucket];
  if (head == kNil) {
    s.prev = idx;
    s.next = idx;
    head = idx;
    MarkOccupied(bucket);
    return;
  }
  // Append at the tail. Buckets stay in seq order with no search: a new,
  // re-armed or rescheduled event has the highest seq yet, and a cascade runs
  // only when every level below the cascading slot is empty, so it refills
  // empty buckets in the slot's own order. A level-0 bucket thus fires head
  // first in (time, seq) order.
  const uint32_t tail = slots_[head].prev;
  DCHECK_LT(slots_[tail].seq, s.seq) << "wheel bucket out of seq order";
  s.prev = tail;
  s.next = head;
  slots_[tail].next = idx;
  slots_[head].prev = idx;
}

void EventLoop::UnlinkFromWheel(uint32_t idx) {
  EventSlot& s = slots_[idx];
  uint32_t& head = buckets_[s.bucket];
  if (s.next == idx) {
    head = kNil;
    MarkEmpty(s.bucket);
  } else {
    slots_[s.prev].next = s.next;
    slots_[s.next].prev = s.prev;
    if (head == idx) {
      head = s.next;
    }
  }
  --wheel_count_;
}

EventLoop::WheelPos EventLoop::NextOccupiedSlot() const {
  // Lowest occupied level wins: level L-1 events all precede the next
  // level-L slot boundary, which every occupied level-L slot starts at or
  // after.
  const auto cursor_time = static_cast<uint64_t>(wheel_time_);
  const int cursor0 = static_cast<int>(cursor_time & (kLevel0Slots - 1));
  const int word = cursor0 / 64;
  int slot = -1;
  if (const uint64_t bits = occupied0_[word] & (~uint64_t{0} << (cursor0 % 64))) {
    slot = word * 64 + __builtin_ctzll(bits);
  } else if (const uint64_t words =
                 word == 63 ? 0 : occupied0_summary_ & (~uint64_t{0} << (word + 1))) {
    const int w = __builtin_ctzll(words);
    slot = w * 64 + __builtin_ctzll(occupied0_[w]);
  }
  if (slot >= 0) {
    const Time start = static_cast<Time>(
        (cursor_time & ~static_cast<uint64_t>(kLevel0Slots - 1)) |
        static_cast<uint64_t>(slot));
    return WheelPos{0, slot, start};
  }
  for (int level = 1; level <= kUpperLevels; ++level) {
    const int shift = LevelShift(level);
    const int cursor =
        static_cast<int>((cursor_time >> shift) & (kUpperSlots - 1));
    const uint64_t ahead = occupied_[level - 1] >> cursor;
    if (ahead == 0) {
      continue;
    }
    const int upper_slot = cursor + __builtin_ctzll(ahead);
    const int upper_shift = shift + kUpperBits;
    const uint64_t upper_mask =
        upper_shift >= 64 ? 0 : (~uint64_t{0} << upper_shift);
    const Time start = static_cast<Time>(
        (cursor_time & upper_mask) |
        (static_cast<uint64_t>(upper_slot) << shift));
    return WheelPos{level, upper_slot, start};
  }
  LOG(FATAL) << "wheel_count_=" << wheel_count_ << " but no occupied slot";
  return WheelPos{-1, -1, 0};
}

void EventLoop::Advance(const WheelPos& pos) {
  wheel_time_ = pos.start;
  if (pos.level == 0) {
    instant_ = pos.start;
    return;
  }
  const int b = kLevel0Slots + (pos.level - 1) * kUpperSlots + pos.slot;
  const uint32_t first = buckets_[b];
  buckets_[b] = kNil;
  MarkEmpty(b);
  uint32_t idx = first;
  do {
    const uint32_t next = slots_[idx].next;
    --wheel_count_;
    ++work_.cascade_reinserts;
    // Re-inserts relative to the advanced wheel_time_, landing at a strictly
    // lower level (every event here is within the slot's range).
    InsertIntoWheel(idx);
    idx = next;
  } while (idx != first);
}

void EventLoop::FireNext(uint32_t head) {
  uint32_t idx = head;
  if (oracle_ != nullptr && slots_[head].next != head) {
    // Candidates in seq (default FIFO) order: the bucket's order.
    oracle_cands_.clear();
    oracle_slots_.clear();
    uint32_t i = head;
    do {
      oracle_cands_.push_back(ScheduleOracle::Candidate{BodyOf(i).tag, slots_[i].seq});
      oracle_slots_.push_back(i);
      i = slots_[i].next;
    } while (i != head);
    const size_t choice = oracle_->Pick(instant_, oracle_cands_);
    CHECK_LT(choice, oracle_cands_.size()) << "oracle picked out of range";
    idx = oracle_slots_[choice];
  }
  UnlinkFromWheel(idx);
  EventSlot& s = slots_[idx];
  const Time fire_time = s.when;
  DCHECK_EQ(fire_time, instant_) << "level-0 bucket must be exact";
  now_ = fire_time;
  --pending_count_;
  ++work_.fired;
  s.state = SlotState::kFiring;
  // The callback runs in place: its chunk never moves, and its slot is off
  // the free list until the call returns, even if the callback schedules
  // enough events to grow slots_ (so `s` is re-fetched afterwards).
  const EventBody& body = BodyOf(idx);
  if (s.periodic) {
    body.fn();
    EventSlot& s2 = slots_[idx];
    if (s2.state == SlotState::kFiringCancelled) {
      RetireId(s2);
      Recycle(idx);
    } else {
      // Re-arm in place: same id, fresh seq drawn after the callback — the
      // same tie-break order a self-rescheduling callback would get.
      s2.when = fire_time + body.period;
      s2.seq = next_seq_++;
      ++pending_count_;
      ++work_.wheel_inserts;
      InsertIntoWheel(idx);
    }
  } else {
    // Kill the id before invoking so Cancel(own id) and Reschedule(own id)
    // inside the callback report "already fired".
    RetireId(s);
    body.fn();
    Recycle(idx);
  }
}

bool EventLoop::Cancel(EventId id) {
  const uint32_t idx = static_cast<uint32_t>(id);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (idx >= slots_.size()) {
    return false;
  }
  EventSlot& s = slots_[idx];
  if (s.gen != gen) {
    return false;  // already fired / cancelled / never existed
  }
  switch (s.state) {
    case SlotState::kInWheel:
      UnlinkFromWheel(idx);
      RetireId(s);
      Recycle(idx);
      --pending_count_;
      ++work_.cancelled;
      return true;
    case SlotState::kFiring:
      // Periodic event cancelled from inside its own callback (a one-shot's
      // id is already dead): suppress the re-arm. Its pending_count_ share
      // was already consumed by the fire.
      s.state = SlotState::kFiringCancelled;
      ++work_.cancelled;
      return true;
    case SlotState::kFiringCancelled:
    case SlotState::kFree:
      return false;
  }
  return false;
}

bool EventLoop::Reschedule(EventId id, Time when) {
  CHECK_GE(when, now_) << "cannot schedule into the past";
  const uint32_t idx = static_cast<uint32_t>(id);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (idx >= slots_.size()) {
    return false;
  }
  EventSlot& s = slots_[idx];
  if (s.gen != gen || s.state != SlotState::kInWheel || s.periodic ||
      s.when == instant_) {
    return false;
  }
  UnlinkFromWheel(idx);
  s.when = when;
  s.seq = next_seq_++;
  ++work_.rescheduled;
  Enqueue(idx);
  return true;
}

bool EventLoop::RunOne() {
  for (;;) {
    if (const uint32_t head = InstantHead(); head != kNil) {
      FireNext(head);
      return true;
    }
    instant_ = kNoInstant;
    if (wheel_count_ == 0) {
      return false;
    }
    Advance(NextOccupiedSlot());
  }
}

void EventLoop::RunUntil(Time deadline) {
  for (;;) {
    if (const uint32_t head = InstantHead(); head != kNil) {
      if (instant_ > deadline) {
        break;  // partially fired instant past the deadline
      }
      FireNext(head);
      continue;
    }
    instant_ = kNoInstant;
    if (wheel_count_ == 0) {
      break;
    }
    const WheelPos pos = NextOccupiedSlot();
    // pos.start lower-bounds every event in the slot, so nothing is due.
    if (pos.start > deadline) {
      break;
    }
    Advance(pos);
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
}

void EventLoop::RunUntilIdle() {
  while (RunOne()) {
  }
}

}  // namespace gs
