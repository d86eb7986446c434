// InlineFunction: a move-only, type-erased callable with fixed inline
// storage and NO heap fallback. InlineCallback is its `void()` alias.
//
// The discrete-event engine dispatches hundreds of millions of callbacks per
// run; wrapping each capture in a std::function means a heap allocation for
// anything larger than the (small) libstdc++ SBO buffer, plus a pointer chase
// on every invoke. InlineFunction stores the callable directly in the owner's
// slot instead. Oversized captures are a *compile error* — the static_assert
// below is the proof that no schedule site in the tree allocates. If you hit
// it, either shrink the capture (capture a pointer to long-lived state rather
// than copies) or, as a last resort, bump kCapacity.
//
// Emplace() builds a callable directly in an existing InlineFunction (the
// event engine's callback slots), so a lambda handed to a template Schedule*
// call is constructed once and never moved. Trivially copyable callables —
// the common `[this, cpu]` capture — carry no manager: destroying them is a
// no-op and moving them is a copy of the storage.
#ifndef GHOST_SIM_SRC_BASE_INLINE_CALLBACK_H_
#define GHOST_SIM_SRC_BASE_INLINE_CALLBACK_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace gs {

template <typename Signature>
class InlineFunction;  // undefined primary; only R(Args...) is provided

template <typename R, typename... Args>
class InlineFunction<R(Args...)> {
 public:
  // Sized to cover the largest capture in the tree (the fuzz-test chaos
  // lambda, 10 captured words) with a little headroom.
  static constexpr size_t kCapacity = 96;

  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  // Implicit so every existing `loop->ScheduleAfter(d, [..] {...})` call site
  // keeps working unchanged.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& fn) {  // NOLINT(google-explicit-constructor)
    Construct(std::forward<F>(fn));
  }

  InlineFunction(InlineFunction&& other) noexcept { MoveFrom(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      Reset();
      MoveFrom(other);
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { Reset(); }

  // Replaces the held callable with `fn`, constructed in place.
  template <typename F>
  void Emplace(F&& fn) {
    Reset();
    Construct(std::forward<F>(fn));
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  // Const like std::function: the held callable is logically part of the
  // function value, and call sites pass `const InlineFunction&` through
  // plumbing that never reassigns it.
  R operator()(Args... args) const {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  // Destroys the held callable (releasing its captures) and becomes empty.
  void Reset() {
    if (manage_ != nullptr) {
      manage_(Op::kDestroy, storage_, nullptr);
      manage_ = nullptr;
    }
    invoke_ = nullptr;
  }

 private:
  enum class Op { kDestroy, kMoveAndDestroy };
  using InvokeFn = R (*)(void*, Args&&...);
  using ManageFn = void (*)(Op, void* src, void* dst);

  template <typename F>
  void Construct(F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<R, Fn&, Args...>,
                  "callable does not match the InlineFunction signature");
    static_assert(sizeof(Fn) <= kCapacity,
                  "capture too large for InlineFunction inline storage: "
                  "capture pointers to long-lived state instead of copies, "
                  "or bump InlineFunction::kCapacity");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned capture not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "callable must be nothrow-move-constructible");
    new (storage_) Fn(std::forward<F>(fn));
    invoke_ = &InvokeImpl<Fn>;
    if constexpr (!std::is_trivially_copyable_v<Fn>) {
      manage_ = &ManageImpl<Fn>;
    }
  }

  template <typename Fn>
  static R InvokeImpl(void* storage, Args&&... args) {
    return (*std::launder(reinterpret_cast<Fn*>(storage)))(
        std::forward<Args>(args)...);
  }

  template <typename Fn>
  static void ManageImpl(Op op, void* src, void* dst) {
    Fn* fn = std::launder(reinterpret_cast<Fn*>(src));
    if (op == Op::kMoveAndDestroy) {
      new (dst) Fn(std::move(*fn));
    }
    fn->~Fn();
  }

  void MoveFrom(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (manage_ != nullptr) {
      manage_(Op::kMoveAndDestroy, other.storage_, storage_);
    } else if (invoke_ != nullptr) {
      std::memcpy(storage_, other.storage_, kCapacity);  // trivially copyable
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  // The pointers come first so that a small capture shares their cache line.
  InvokeFn invoke_ = nullptr;
  ManageFn manage_ = nullptr;  // null for trivially copyable callables
  alignas(std::max_align_t) mutable unsigned char storage_[kCapacity];
};

using InlineCallback = InlineFunction<void()>;

}  // namespace gs

#endif  // GHOST_SIM_SRC_BASE_INLINE_CALLBACK_H_
