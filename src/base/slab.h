// Slab<T>: a typed freelist slab allocator with generation-checked handles.
//
// The simulation's long-lived objects (Task, GhostTask, policy-side task
// state) are allocated and freed in the hot loop; going through the general
// heap for each one costs a malloc/free pair plus cache-hostile scatter.
// Slab<T> carves objects out of fixed-size chunks instead:
//
//  - O(1) New/Delete through an intrusive freelist; no per-object malloc
//    after a chunk is warm.
//  - Lazy fill: a chunk is allocated raw, and a slot is set up only when it
//    is first handed out (a bump index behind the LIFO freelist). Slots that
//    are never used are never touched, so a slab holding 30 objects keeps a
//    few pages of its 256-slot chunk resident, not all of them. Allocation
//    order is the same as with eagerly threaded slots: freed slots LIFO,
//    then never-used slots in index order.
//  - Pointer stability: chunks are never moved or freed while the slab is
//    alive, so raw T* remains valid for the object's lifetime (the rest of
//    the tree keeps using plain pointers).
//  - Generation-checked handles, mirroring the event-loop slot slab (PR 3):
//    a Handle encodes (generation << 32) | slot index; Get() on a stale
//    handle (the slot was freed or reused) returns nullptr instead of a
//    dangling pointer. Use handles for references that may outlive the
//    object (deferred callbacks); use raw pointers inside an event where
//    liveness is already guaranteed.
//
// Not thread-safe: one slab belongs to one SimulationContext, like the event
// loop it mirrors.
#ifndef GHOST_SIM_SRC_BASE_SLAB_H_
#define GHOST_SIM_SRC_BASE_SLAB_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/base/logging.h"

namespace gs {

template <typename T>
class Slab {
 public:
  using Handle = uint64_t;
  static constexpr Handle kNullHandle = 0;

  Slab() = default;
  ~Slab() {
    // Live objects are destroyed here; the owner is expected to have freed
    // them already (Delete runs destructors), but tearing down a whole
    // simulation without per-object Delete calls is fine.
    for (uint32_t i = 0; i < used_; ++i) {
      Slot* slot = SlotAt(i);
      if (slot->live) {
        Object(slot)->~T();
      }
    }
  }

  Slab(const Slab&) = delete;
  Slab& operator=(const Slab&) = delete;

  template <typename... Args>
  T* New(Args&&... args) {
    if (free_head_ == kNil) {
      // No freed slot: set up the next never-used one.
      if (used_ == capacity()) {
        CHECK(chunks_.size() < (1u << 24)) << "Slab exhausted its 32-bit index space";
        chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
      }
      Slot* fresh = SlotAt(used_);
      fresh->index = used_++;
      fresh->generation = 0;
      fresh->next_free = kNil;
      free_head_ = fresh->index;
    }
    Slot* slot = SlotAt(free_head_);
    free_head_ = slot->next_free;
    slot->live = true;
    ++live_;
    return new (slot->storage) T(std::forward<Args>(args)...);
  }

  // Destroys the object and recycles its slot. The slot's generation is
  // bumped so outstanding handles to this object go stale.
  void Delete(T* obj) {
    Slot* slot = SlotOf(obj);
    DCHECK(slot->live) << "double free in Slab";
    Object(slot)->~T();
    slot->live = false;
    ++slot->generation;
    slot->next_free = free_head_;
    free_head_ = slot->index;
    --live_;
  }

  // A stable reference that survives the object's death: Get() on a handle
  // whose slot has been freed (or reused by a later New) returns nullptr.
  Handle HandleOf(const T* obj) const {
    const Slot* slot = SlotOf(obj);
    return (static_cast<Handle>(slot->generation) << 32) |
           (static_cast<Handle>(slot->index) + 1);
  }

  T* Get(Handle handle) const {
    if (handle == kNullHandle) {
      return nullptr;
    }
    const uint32_t index = static_cast<uint32_t>(handle & 0xffffffffu) - 1;
    const uint32_t generation = static_cast<uint32_t>(handle >> 32);
    if (index >= used_) {  // past the high-water mark: raw memory
      return nullptr;
    }
    Slot* slot = SlotAt(index);
    if (!slot->live || slot->generation != generation) {
      return nullptr;
    }
    return Object(slot);
  }

  // Destroys every live object and rebuilds the freelist in index order, so
  // a cleared slab allocates in the same deterministic sequence as a fresh
  // one. Chunks and generations are retained: handles taken before Clear()
  // stay stale, and the chunks stay warm for the next phase (e.g. a TaskDump
  // resync repopulating a policy table).
  void Clear() {
    for (uint32_t i = 0; i < used_; ++i) {
      Slot* slot = SlotAt(i);
      if (slot->live) {
        Object(slot)->~T();
        slot->live = false;
        ++slot->generation;
      }
      slot->next_free = i + 1 < used_ ? i + 1 : kNil;
    }
    live_ = 0;
    free_head_ = used_ > 0 ? 0 : kNil;
  }

  size_t live() const { return live_; }
  size_t capacity() const { return chunks_.size() * kChunkSlots; }

 private:
  // 256 objects per chunk: big enough to amortize the chunk malloc to noise,
  // small enough that sparse slabs don't waste memory.
  static constexpr uint32_t kChunkSlots = 256;
  static constexpr uint32_t kNil = 0xffffffffu;

  // Trivially default-constructible, so a new chunk is left untouched; New()
  // sets a slot's fields when it first hands the slot out.
  struct Slot {
    alignas(T) unsigned char storage[sizeof(T)];
    uint32_t index;       // global slot index (chunk * kChunkSlots + i)
    uint32_t generation;  // bumped on free
    uint32_t next_free;
    bool live;
  };

  struct Chunk {
    Slot slots[kChunkSlots];
  };

  static T* Object(Slot* slot) {
    return std::launder(reinterpret_cast<T*>(slot->storage));
  }
  static const T* Object(const Slot* slot) {
    return std::launder(reinterpret_cast<const T*>(slot->storage));
  }
  // storage is at offset 0, so the object pointer *is* the slot pointer.
  static Slot* SlotOf(const T* obj) {
    static_assert(offsetof(Slot, storage) == 0, "storage must lead the slot");
    return reinterpret_cast<Slot*>(
        const_cast<unsigned char*>(reinterpret_cast<const unsigned char*>(obj)));
  }

  Slot* SlotAt(uint32_t index) const {
    return &chunks_[index / kChunkSlots]->slots[index % kChunkSlots];
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  uint32_t free_head_ = kNil;  // freed slots, most recent first
  uint32_t used_ = 0;          // slots ever handed out: [0, used_) are set up
  size_t live_ = 0;
};

}  // namespace gs

#endif  // GHOST_SIM_SRC_BASE_SLAB_H_
