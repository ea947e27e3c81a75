// A size-bucketed free-list recycler for the simulator's small, short-lived
// heap blocks: coroutine frames (sim::Proc, sim::Task — one frame per
// channel write, syscall, or delivery).  These are the allocations left on the steady-state path after
// frame payloads moved to hw::FramePool; at a few dozen per simulated
// message they dominate the Table 1/2 wall-clock profile.
//
// Blocks are rounded up to a 64-byte granule and recycled through an
// intrusive per-bucket free list (the freed block's first word is the
// link), so a warm steady state allocates nothing.  Oversized or
// over-aligned requests fall through to ::operator new.
//
// The free lists are per-thread: each shard worker recycles through its
// own lists, so the sharded runtime needs no locks here.  A block freed on
// a different thread than it was allocated on (e.g. a setup-time frame
// reclaimed by a shard) simply migrates to the freeing thread's list —
// blocks are self-contained, so migration is safe, and the runtime's round
// barriers order the reuse.  Under AddressSanitizer the pool is compiled
// out entirely (every request hits ::operator new) so use-after-free
// detection on coroutine frames keeps working in the sanitizer CI job.
#pragma once

#include <cstddef>
#include <new>

namespace hpcvorx::sim {

class SmallBlockPool {
 public:
  static void* allocate(std::size_t bytes) {
#if defined(__SANITIZE_ADDRESS__)
    return ::operator new(bytes);
#else
    const std::size_t b = bucket_of(bytes);
    if (b >= kBuckets) return ::operator new(bytes);
    FreeNode*& head = heads_[b];
    if (head != nullptr) {
      FreeNode* n = head;
      head = n->next;
      return n;
    }
    return ::operator new((b + 1) * kGranule);
#endif
  }

  static void deallocate(void* p, [[maybe_unused]] std::size_t bytes) noexcept {
#if defined(__SANITIZE_ADDRESS__)
    ::operator delete(p);
#else
    const std::size_t b = bucket_of(bytes);
    if (b >= kBuckets) {
      ::operator delete(p);
      return;
    }
    FreeNode* n = static_cast<FreeNode*>(p);
    n->next = heads_[b];
    heads_[b] = n;
#endif
  }

 private:
  // 64-byte granule: coroutine frames cluster in the 128–512 byte range,
  // so a finer granule buys little and a coarser one wastes a cache line
  // per block.  2 KiB cap: anything larger is not a steady-state object.
  static constexpr std::size_t kGranule = 64;
  static constexpr std::size_t kMaxBytes = 2048;
  static constexpr std::size_t kBuckets = kMaxBytes / kGranule;

  struct FreeNode {
    FreeNode* next;
  };

  [[nodiscard]] static std::size_t bucket_of(std::size_t bytes) {
    return bytes == 0 ? 0 : (bytes - 1) / kGranule;
  }

  // Reachable from static storage, so LeakSanitizer sees retained blocks
  // as live; the OS reclaims them at process exit like any allocator pool.
  // vorx-lint: allow(R6) per-thread free lists are this allocator's point — each shard worker owns its own (compiled out under ASan already)
  inline static thread_local FreeNode* heads_[kBuckets] = {};
};

}  // namespace hpcvorx::sim
