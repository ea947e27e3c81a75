// A move-only type-erased callable with 64 bytes of inline storage.
//
// This is the storage type behind every scheduled event.  std::function's
// small-buffer optimization (16 bytes in libstdc++) forces a heap
// allocation for any capture beyond two pointers — which made every
// frame-delivery and timer lambda in the hot path allocate.  InlineFn
// widens the buffer to 64 bytes (one cache line; every current call site
// in src/ fits) and keeps a heap fallback for oversized captures so the
// API stays total.
//
// Design notes:
//   * move-only — events are scheduled once and fired once, so copyability
//     (which forced std::function to heap-allocate non-copyable captures)
//     buys nothing;
//   * a static ops table (invoke/relocate/destroy function pointers) per
//     erased type, not a vtable — no per-object pointer beyond the table
//     pointer, and relocation is a real move+destroy so entries can live
//     by value inside the event queue's slabs and heap vector;
//   * inline eligibility requires nothrow move construction, so queue
//     growth (vector reallocation moves entries) keeps the strong
//     exception guarantee for free.
#pragma once

#include <cstddef>
#include <memory>
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

  InlineFn() noexcept = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                     // std::function at every scheduling call site.
    emplace(std::forward<F>(f));
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

  /// True when the callable spilled to the heap fallback (capture larger
  /// than kInlineBytes or over-aligned).  Exposed for tests and benches
  /// that pin the zero-allocation property.
  [[nodiscard]] bool heap_allocated() const noexcept {
    return ops_ != nullptr && ops_->heap;
  }

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
    bool heap;
  };

  template <typename D>
  static constexpr bool fits_inline =
      sizeof(D) <= kInlineBytes && alignof(D) <= alignof(std::max_align_t) &&
      std::is_nothrow_move_constructible_v<D>;

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
    static constexpr Ops ops{&invoke, &relocate, &destroy, &move_invoke,
                             false};
  };

  template <typename D>
  struct HeapOps {
    static D*& slot(void* p) noexcept { return *static_cast<D**>(p); }
    static void invoke(void* p) { (*slot(p))(); }
    static void relocate(void* dst, void* src) noexcept {
      ::new (dst) D*(slot(src));
    }
    static void destroy(void* p) noexcept { delete slot(p); }
    static void move_invoke(void* p) {
      // Heap captures are already storage-stable; only the 8-byte slot
      // lived in the slab, and it was read before user code ran.
      D* d = slot(p);
      (*d)();
      delete d;
    }
    static constexpr Ops ops{&invoke, &relocate, &destroy, &move_invoke,
                             true};
  };

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>) {
      ::new (static_cast<void*>(&storage_)) D(std::forward<F>(f));
      ops_ = &InlineOps<D>::ops;
    } else {
      ::new (static_cast<void*>(&storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &HeapOps<D>::ops;
    }
  }

  alignas(std::max_align_t) std::byte storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace hpcvorx::sim
