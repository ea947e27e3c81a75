// A move-only type-erased callable with 64 bytes of inline storage.
//
// This is the storage type behind every scheduled event.  std::function's
// small-buffer optimization (16 bytes in libstdc++) forces a heap
// allocation for any capture beyond two pointers — which made every
// frame-delivery and timer lambda in the hot path allocate.  InlineFn
// widens the buffer to 64 bytes (one cache line) and has no heap fallback:
// a capture that does not fit is a compile error that says to capture a
// pointer instead, so storing an event never allocates.
//
// Design notes:
//   * move-only — events are scheduled once and fired once, so copyability
//     (which forced std::function to heap-allocate non-copyable captures)
//     buys nothing;
//   * a static ops table (invoke/relocate/destroy function pointers) per
//     erased type, not a vtable — no per-object pointer beyond the table
//     pointer, and relocation is a real move+destroy so entries can live
//     by value inside the event queue's slabs and heap vector;
//   * a stored callable must be nothrow move constructible, so queue
//     growth (vector reallocation moves entries) keeps the strong
//     exception guarantee for free.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace hpcvorx::sim {

class InlineFn {
 public:
  /// Inline capture budget.  One cache line: large enough for `this` plus a
  /// handful of values or a by-value std::function, small enough that the
  /// event-queue entries stay compact.
  static constexpr std::size_t kInlineBytes = 64;

  /// True when a callable of type F can be stored: it fits the inline
  /// budget, needs no more than max_align_t alignment, and moves without
  /// throwing (queue growth relocates entries, so relocation must not fail).
  template <typename F>
  static constexpr bool fits =
      sizeof(std::decay_t<F>) <= kInlineBytes &&
      alignof(std::decay_t<F>) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<std::decay_t<F>>;

  InlineFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                     // std::function at every scheduling call site.
    using D = std::decay_t<F>;
    static_assert(fits<D>,
                  "InlineFn: capture exceeds 64 bytes, is over-aligned or has "
                  "a throwing move; capture a pointer instead");
    ::new (static_cast<void*>(&storage_)) D(std::forward<F>(f));
    ops_ = &InlineOps<D>::ops;
  }

  InlineFn(InlineFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(&storage_, &other.storage_);
      other.ops_ = nullptr;
    }
  }

  InlineFn& operator=(InlineFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(&storage_, &other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFn(const InlineFn&) = delete;
  InlineFn& operator=(const InlineFn&) = delete;

  ~InlineFn() { reset(); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(&storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(&storage_); }

  /// Fires a callable whose storage may be reclaimed or relocated *by the
  /// call itself*: one fused indirect call first moves the capture out of
  /// this object (into the op's own frame — registers for small captures),
  /// destroys the source, and only then invokes.  By the time user code
  /// runs, this InlineFn is empty and its storage is dead, so the event
  /// queue's batch cursor can return a slab node to the free list *before*
  /// firing it — no stack-relocate round trip per event.  A throwing
  /// callable destroys its capture normally (it is a local by then).
  void consume_invoke() {
    const Ops* ops = ops_;
    ops_ = nullptr;
    ops->move_invoke(&storage_);
  }

 private:
  struct Ops {
    void (*invoke)(void* p);
    void (*relocate)(void* dst, void* src) noexcept;  // move-construct + destroy src
    void (*destroy)(void* p) noexcept;
    void (*move_invoke)(void* p);  // move capture out, destroy src, invoke
  };

  template <typename D>
  struct InlineOps {
    static void invoke(void* p) { (*static_cast<D*>(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D(std::move(*static_cast<D*>(src)));
      static_cast<D*>(src)->~D();
    }
    static void destroy(void* p) noexcept { static_cast<D*>(p)->~D(); }
    static void move_invoke(void* p) {
      D* src = static_cast<D*>(p);
      D d(std::move(*src));
      src->~D();
      d();
    }
    static constexpr Ops ops{&invoke, &relocate, &destroy, &move_invoke};
  };

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace hpcvorx::sim
