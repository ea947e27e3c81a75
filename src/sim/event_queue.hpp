// A stable pending-event queue for the simulator.
//
// Events fire in (time, insertion-sequence) order, which makes every
// simulation deterministic: two events scheduled for the same instant fire
// in the order they were scheduled.
//
// This queue is the innermost loop of every benchmark, so the storage is
// built around three structures (all sharing one node slab):
//
//   * a near-future bucket ring (a degenerate timing wheel with a 1 ns
//     tick): events within kL0Window ns of the last-popped time go into
//     the exact-tick bucket `at % kWheelBuckets` as an intrusive FIFO.
//     Insert and pop are O(1); FIFO order within a bucket *is*
//     insertion-sequence order because a 1 ns tick means one bucket holds
//     exactly one instant.  The overwhelming majority of events (frame
//     hops, coroutine wakeups) land here.
//   * a coarse level-1 wheel: 4096 buckets of 4096 ns (~4 µs) each,
//     covering the next ~16.8 ms beyond the ring.  CPU slice-end events at
//     Table 1/2 costs (~100–300 µs) — which overshoot the 16 µs ring — land
//     here in O(1) instead of taking the heap.  When the pop frontier
//     advances far enough that a level-1 bucket fits entirely inside the
//     level-0 window, the bucket's events are redistributed ("promoted")
//     into their exact-tick ring buckets; each event is promoted at most
//     once, so the two-level path stays amortized O(1).
//   * a binary heap for the true spill: events beyond the level-1 span,
//     behind the pop frontier, or posted on a reserved ticket.  The heap
//     sifts 24-byte (time, seq, slab handle) keys — the entries themselves
//     stay put in the slab — so every sift compare reads the heap array
//     alone and never chases a slab node.
//
// pop() compares the ring head against the heap head (level-1 events are
// promoted before they can become the head), so global firing order is
// identical to a single (time, seq) heap.
//
// Entries carry their callback in an InlineFn (64 inline bytes — see
// inline_fn.hpp), so scheduling allocates nothing on the steady-state
// path.  There is no cancellation: a caller that may want to retract an
// event stamps it instead (the CPU's slice end captures a generation
// counter and fires as a no-op once the counter has moved on; see
// cpu.hpp), so every queued event fires exactly once.
//
// reserve() hands out a queue position without a queue entry: an
// EventTicket carries the insertion sequence number an eager post() would
// have taken at that moment, and post(at, ticket, fn) later fires the
// event exactly where that eager post would have fired.  Ticketed posts
// always take the spill heap — a wheel bucket's FIFO order *is* sequence
// order, which an older sequence number would break — and the heap already
// orders on (time, seq) against both wheels.
//
// Both wheel levels are one Level type (head array, occupancy bitmap,
// count, earliest bucket start) instantiated at two tick widths.  Their
// head arrays are allocated uninitialized and consulted only when the
// bucket's occupancy bit is set, which keeps queue construction cheap (a
// 2.5 KB bitmap clear) — benchmarks build thousands of Simulators.
//
// Batched dispatch has one drain path: drain_bucket() finds the head
// through next_head(), exactly as pop() does, and sweeps the ring from
// there.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"

namespace hpcvorx::sim {

/// A reserved position in an EventQueue's (time, seq) order: the insertion
/// sequence number an eager post made at reservation time would have
/// taken.  Spend it on exactly one EventQueue::post(at, ticket, fn).
struct EventTicket {
  std::uint64_t seq = 0;
};

/// (time, sequence)-ordered callback queue: two-level timing wheel over a
/// key-sifting binary-heap spill.
class EventQueue {
 public:
  /// Width of the level-0 ring, in ticks (1 tick = 1 ns).  Power of two;
  /// the ring maps one instant per bucket across `[frontier, frontier +
  /// kWheelBuckets)`.  16384 ns covers every steady-state delay in the
  /// message path (frame hops are 0.8–54 µs end to end but each *event* is
  /// a few µs out; coroutine wakeups are nearer still).
  static constexpr std::uint64_t kWheelBuckets = 16384;
  /// Level-1 bucket width: 4096 ns (~the paper's 4 µs granularity) so the
  /// bucket arrays stay power-of-two and index math is a shift.
  static constexpr std::uint64_t kL1TickLog2 = 12;
  static constexpr std::uint64_t kL1Tick = std::uint64_t{1} << kL1TickLog2;
  static constexpr std::uint64_t kL1Buckets = 4096;
  /// Level-1 horizon: events within [frontier, Level1::start(frontier) +
  /// kL1Span) avoid the heap entirely — i.e. the full span minus the
  /// frontier's offset into its own level-1 bucket, so an accepted
  /// event's bucket index never aliases the frontier's bucket (the last
  /// partial bucket spills to the heap; see insert()).  4096 buckets x
  /// 4096 ns ≈ 16.8 ms — two orders of magnitude past the largest CPU
  /// slice cost in Tables 1/2.
  static constexpr std::uint64_t kL1Span = kL1Buckets * kL1Tick;
  /// Direct level-0 insert window, narrowed by one level-1 bucket.  The
  /// narrowing maintains the promotion invariant: any tick reachable by a
  /// direct level-0 insert lies in a level-1 bucket that promote_due() has
  /// already drained, so a bucket is never promoted *behind* a same-tick
  /// event with a later sequence number (see event_queue.cpp).
  static constexpr std::uint64_t kL0Window = kWheelBuckets - kL1Tick;

  /// Structure-traffic counters (cumulative since construction).  These
  /// feed the engine.wheel_l1_* bench rows and the spill-accounting audit:
  /// `heap_inserts` counts only true spill (beyond the level-1 span or
  /// behind the frontier) — promoted level-1 events are counted in
  /// `l1_promoted`, never as spill.
  struct Stats {
    std::uint64_t l0_inserts = 0;    // direct ring inserts
    std::uint64_t l1_inserts = 0;    // level-1 wheel inserts
    std::uint64_t heap_inserts = 0;  // true spill only
    std::uint64_t l1_promoted = 0;   // events redistributed level 1 -> 0
    std::uint64_t bucket_drains = 0;   // drain_bucket() calls that filled a
                                       // batch (feeds the amortization row)
    std::uint64_t drained_events = 0;  // events handed out via drain_bucket
  };

  EventQueue();
  EventQueue(EventQueue&&) = default;
  EventQueue& operator=(EventQueue&&) = default;

  /// Schedules `fn` at absolute time `at`.  Taking the callable by rvalue
  /// reference means a lambda at the call site materializes one InlineFn
  /// and relocates straight into queue storage — no per-layer parameter
  /// moves through the Simulator forwarding chain — and with InlineFn
  /// storage the whole call is allocation-free once the queue's slab is
  /// warm.  Inline: together with the inline insert/link chain below, a
  /// call site that builds its lambda in place compiles down to direct
  /// stores into the slab node, with no indirect relocate.
  void post(SimTime at, InlineFn&& fn) {
    insert(at, next_seq_++, std::move(fn));
  }

  /// Takes the next insertion sequence number without queueing anything.
  [[nodiscard]] EventTicket reserve() { return EventTicket{next_seq_++}; }
  /// Takes the next `n` sequence numbers as one block and returns the
  /// first: ticket `first.seq + i` is the one the (i+1)-th of n reserve()
  /// calls made now would have returned.
  [[nodiscard]] EventTicket reserve(std::uint64_t n) {
    const EventTicket first{next_seq_};
    next_seq_ += n;
    return first;
  }

  /// Schedules `fn` at `at` in the (time, seq) slot `ticket` reserved: it
  /// fires exactly where post(at, fn) made at reservation time would have
  /// fired.  Always spills (see the header comment).
  void post(SimTime at, EventTicket ticket, InlineFn&& fn) {
    spill(alloc_node(at, ticket.seq, std::move(fn)));
  }

  /// True if no events remain.
  [[nodiscard]] bool empty() const { return size() == 0; }

  /// Number of scheduled events.
  [[nodiscard]] std::size_t size() const {
    return l0_.count + l1_.count + heap_.size();
  }

  /// Time of the earliest event.  Precondition: !empty().
  [[nodiscard]] SimTime next_time() const;

  /// Returns the earliest event's callback and its time, popping it from
  /// the queue.  Precondition: !empty().
  std::pair<SimTime, InlineFn> pop();

  /// Entry is an implementation detail, public only so the comparator in
  /// event_queue.cpp — and DrainBatch's inline cursor accessors below —
  /// can see it.  Entries live in the shared node slab for all three
  /// structures; the heap sifts Keys, never Entries.  Field order
  /// is deliberate: at/seq lead so that — together with Node's link words
  /// — every field a drain chain-walk reads sits in the node's first
  /// cache line; the wide callable payload trails.
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    InlineFn fn;
  };

  /// An entry's (time, seq) order key plus its slab handle: the spill
  /// heap's element.
  struct Key {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t idx;

    [[nodiscard]] bool before(SimTime t, std::uint64_t s) const {
      return at < t || (at == t && seq < s);
    }
  };

  /// One drained frontier-bucket span: a firing cursor over slab handles
  /// in exact (time, seq) pop order.  The batch *borrows* the queue's slab
  /// storage — drained entries stay in their slab nodes, unlinked from
  /// every bucket structure, and are freed one by one as the cursor fires
  /// past them.  Moving only 4-byte handles (instead of relocating each
  /// 96-byte entry into batch arrays and back through a fire cursor)
  /// halves the per-event memory traffic of a drain.  Owned by the
  /// dispatcher (sim::Simulator) and refilled by drain_bucket(); the
  /// handle vector keeps its capacity across refills, so steady-state
  /// batched dispatch allocates nothing (lint R5).
  class DrainBatch {
   public:
    DrainBatch() = default;
    DrainBatch(const DrainBatch&) = delete;
    DrainBatch& operator=(const DrainBatch&) = delete;

    [[nodiscard]] bool exhausted() const { return pos_ == idx_.size(); }
    [[nodiscard]] std::size_t size() const { return idx_.size(); }
    [[nodiscard]] std::size_t remaining() const { return idx_.size() - pos_; }
    /// Time / insertion sequence of the entry under the cursor.
    /// Precondition for these three: !exhausted().
    [[nodiscard]] SimTime head_time() const { return head().at; }
    [[nodiscard]] std::uint64_t head_seq() const { return head().seq; }
    /// Prefetches the next entry's slab node so it is warm by the time the
    /// current callback returns (a node spans two cache lines).
    void prefetch_next() const {
      if (pos_ + 1 < idx_.size()) {
        const char* p =
            reinterpret_cast<const char*>(&q_->slab_[idx_[pos_ + 1]]);
        __builtin_prefetch(p);
        __builtin_prefetch(p + 64);
      }
    }
    /// Fires the head and advances the cursor.  The node returns to the
    /// free list *before* the call — callable still armed — and
    /// InlineFn::consume_invoke moves the capture out of slab storage as
    /// the first step of its one fused indirect call.  By the time user
    /// code runs (and may grow the slab or reuse the node), the capture
    /// lives in the op's own frame: no stack-relocate round trip per
    /// event.
    void fire_head() {
      const std::uint32_t idx = idx_[pos_++];
      q_->free_node_armed(idx);
      q_->slab_[idx].e.fn.consume_invoke();
    }

   private:
    friend class EventQueue;
    [[nodiscard]] Entry& head() const { return q_->slab_[idx_[pos_]].e; }
    void reset_fill(const EventQueue* q) {
      q_ = q;
      idx_.clear();
      pos_ = 0;
    }
    const EventQueue* q_ = nullptr;  // rebound on every drain_bucket()
    std::vector<std::uint32_t> idx_;  // slab handles, (time, seq) order
    std::size_t pos_ = 0;
  };

  /// Drains every ring event in the live head's level-1 bucket span —
  /// clipped to `limit`, inclusive, so a run_until() deadline never
  /// overshoots mid-bucket — into `out`, in exact (time, seq) pop order.
  /// The head is found by next_head(), as pop() finds it, so a head
  /// bucket still in level 1 is fast-forwarded and promoted into the ring
  /// first.  Returns the number of entries drained.  Returns 0 (and
  /// drains nothing) when the queue is empty, the head is past `limit`,
  /// or the head lives in the spill heap; the caller falls back to pop()
  /// for those cases.  In-span spill-heap entries are never drained: the
  /// dispatcher interleaves them through pop() via earlier_than(), which
  /// keeps heap traffic — and the sampled heap-size counter track —
  /// identical to event-at-a-time dispatch.  Precondition:
  /// out.exhausted().
  std::size_t drain_bucket(DrainBatch& out, SimTime limit);

  /// True when a live queue-resident event orders strictly before
  /// (at, seq).  Used by the batched dispatcher before firing each drained
  /// entry: an event fired earlier in the bucket may have scheduled
  /// something ahead of the rest of the batch (a 0-delay wakeup lands in
  /// the current tick's ring bucket), or an in-span spill entry may hold a
  /// smaller sequence number than a same-tick batch entry.  Read-only: the
  /// frontier never moves — in particular next_head()'s level-1
  /// fast-forward is never triggered, so insert routing during batch
  /// firing matches the pop() path byte for byte.
  [[nodiscard]] bool earlier_than(SimTime at, std::uint64_t seq) const {
    // The wheel check can be strict: a same-tick ring entry always
    // carries a later sequence number than a drained batch entry (the
    // batch took every in-span resident; later inserts get later seqs).
    // Level 1 needs no check at all: after drain_bucket()'s
    // promote_due(), every level-1 resident — and any later level-1
    // insert — lies beyond base_ + kL0Window, past the whole drained
    // span.  Only the spill heap can hold a same-tick, smaller-seq entry
    // (one that was far when inserted), so its check compares sequences.
    if (l0_.count > 0 && l0_.min_start < at) return true;
    return !heap_.empty() && heap_.front().before(at, seq);
  }

  /// Advances the pop frontier to `t` and promotes due level-1 buckets —
  /// exactly what pop() does after handing out an event.  The batched
  /// dispatcher calls this before firing each drained entry so insert
  /// routing and promotion timing stay identical to event-at-a-time
  /// dispatch (the frontier is what decides ring vs level-1 vs spill).
  /// Inline: one max plus one promote-due compare in the common case.
  void advance_frontier(SimTime t) {
    base_ = std::max(base_, t);
    if (l1_due()) promote_due();
  }

  /// Structure-traffic counters; see Stats.
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Current spill-heap occupancy (entries parked beyond the wheels'
  /// span or behind the frontier).
  [[nodiscard]] std::size_t heap_size() const { return heap_.size(); }

 private:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;

  /// Slab node: intrusive FIFO link (doubles as the free list's link) +
  /// the bucket's tail index + the entry.  The tail index is maintained
  /// only on the node that is currently a bucket head (either wheel
  /// level); keeping it here instead of in the head arrays halves those
  /// arrays to 4 bytes/bucket — the whole wheel block must stay under
  /// glibc's 128 KiB mmap threshold or every fresh queue pays mmap/munmap
  /// plus page faults (measured 2x on the post/pop microbench).  The
  /// link words lead so a drain walk's reads (next/at/seq) stay inside the
  /// node's first cache line (see Entry).  Heap-resident nodes use neither
  /// link field.  Cache-line aligned, so a node is 128 bytes (112 used).
  /// With packed 112-byte nodes the post/pop and bucket-drain microbenches,
  /// which build a fresh queue per iteration, ran 2-2.5x slower; pinning
  /// glibc's mmap and trim thresholds closed the gap, so the cost came
  /// from where the allocator placed and returned the smaller slab.
  struct alignas(64) Node {
    std::uint32_t next = kNil;
    std::uint32_t bucket_tail = kNil;
    Entry e;
  };

  /// One wheel level: a ring of kBuckets buckets, each 2^kTickLog2 ns
  /// wide and an intrusive FIFO of slab nodes.  Bucket b's FIFO head is
  /// heads[b], trusted only while b's occupancy bit is set.  Level 0 has
  /// 1 ns ticks, so a bucket holds one instant and min_start is the exact
  /// ring minimum; its head event is heads[index(min_start)].
  template <std::uint64_t kTickLog2, std::uint64_t kBuckets>
  struct Level {
    static constexpr std::uint64_t kTick = std::uint64_t{1} << kTickLog2;
    static constexpr std::uint64_t kMask = kBuckets - 1;
    static constexpr std::uint64_t kWords = kBuckets / 64;
    /// Bytes of wheel_mem_ the level takes: head array, then bitmap.
    static constexpr std::size_t kBytes =
        kBuckets * sizeof(std::uint32_t) + kWords * sizeof(std::uint64_t);

    std::uint32_t* heads = nullptr;      // into wheel_mem_
    std::uint64_t* occupancy = nullptr;  // into wheel_mem_
    std::size_t count = 0;               // resident events
    SimTime min_start = 0;  // earliest occupied bucket's start; valid iff
                            // count > 0

    /// Points the level at its kBytes of `mem` and clears the bitmap;
    /// returns the first byte past them.
    std::byte* place(std::byte* mem) {
      heads = reinterpret_cast<std::uint32_t*>(mem);
      occupancy = reinterpret_cast<std::uint64_t*>(
          mem + kBuckets * sizeof(std::uint32_t));
      std::fill_n(occupancy, kWords, std::uint64_t{0});
      return mem + kBytes;
    }
    [[nodiscard]] static std::size_t index(SimTime at) {
      return static_cast<std::size_t>(
          (static_cast<std::uint64_t>(at) >> kTickLog2) & kMask);
    }
    [[nodiscard]] static SimTime start(SimTime at) {
      return static_cast<SimTime>(static_cast<std::uint64_t>(at) &
                                  ~(kTick - 1));
    }
    /// Start time of bucket b, mapped circularly from the frontier `base`
    /// (every resident lies in the kBuckets buckets from base's own).
    [[nodiscard]] static SimTime time_of(std::size_t b, SimTime base) {
      return start(base) +
             static_cast<SimTime>(((b - index(base)) & kMask) << kTickLog2);
    }
    [[nodiscard]] bool occupied(std::size_t b) const {
      return (occupancy[b >> 6] >> (b & 63)) & 1u;
    }
    /// Appends an already-filled node (node.next == kNil) to its bucket's
    /// FIFO and maintains min_start.
    void link(std::vector<Node>& slab, std::uint32_t idx) {
      const SimTime at = slab[idx].e.at;
      const std::size_t b = index(at);
      if (!occupied(b)) {
        occupancy[b >> 6] |= std::uint64_t{1} << (b & 63);
        heads[b] = idx;
        slab[idx].bucket_tail = idx;
      } else {
        Node& head_node = slab[heads[b]];
        slab[head_node.bucket_tail].next = idx;
        head_node.bucket_tail = idx;
      }
      if (count == 0 || start(at) < min_start) min_start = start(at);
      ++count;
    }
    void clear(std::size_t b) {
      occupancy[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    }
    /// First occupied bucket at or circularly after b.  Precondition:
    /// count > 0 (some bit is set).
    [[nodiscard]] std::size_t next_occupied(std::size_t b) const {
      b &= kMask;
      std::size_t word = b >> 6;
      std::uint64_t bits = occupancy[word] & (~std::uint64_t{0} << (b & 63));
      while (bits == 0) {
        word = (word + 1) & (kWords - 1);
        bits = occupancy[word];
      }
      return (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    }
  };
  using Level0 = Level<0, kWheelBuckets>;
  using Level1 = Level<kL1TickLog2, kL1Buckets>;

  // The insert chain (insert/alloc_node/Level::link) is defined
  // in-class: post() and the Simulator's scheduling wrappers inline
  // through it, so a call site constructing its lambda in place never
  // pays an opaque call — and the InlineFn relocate devirtualizes to a
  // plain move of the capture bytes.  Only the true-spill heap push
  // stays out of line (cold by design).
  void insert(SimTime at, std::uint64_t seq, InlineFn&& fn) {
    if (at >= base_) {
      const std::uint64_t delta = static_cast<std::uint64_t>(at - base_);
      if (delta < kL0Window) {
        // Level-0 path: O(1) append to the exact-tick bucket's FIFO.
        l0_.link(slab_, alloc_node(at, seq, std::move(fn)));
        ++stats_.l0_inserts;
        return;
      }
      // Level-1 accept window, frontier-bucket-exclusive.  The circular
      // mapping spans kL1Buckets buckets starting at the frontier's own
      // bucket, so when base_ sits mid-bucket the last partial bucket of
      // [base_, base_ + kL1Span) aliases the frontier's bucket index;
      // Level1::time_of() would report the aliased bucket's start as
      // ~base_ (kL1Span too early), promote_due() would drain it at once,
      // and level 0 would be handed a time outside the ring window.
      // Events in that partial bucket spill to the heap instead.
      if (delta <
          kL1Span - (static_cast<std::uint64_t>(base_) & (kL1Tick - 1))) {
        // Level-1 path: O(1) append to the coarse bucket's FIFO; the
        // bucket is redistributed into level 0 when the frontier nears it.
        l1_.link(slab_, alloc_node(at, seq, std::move(fn)));
        ++stats_.l1_inserts;
        return;
      }
    }
    // True spill: far future (beyond the level-1 span) or behind the
    // frontier.  The node stays in the slab; only its key sifts.
    spill(alloc_node(at, seq, std::move(fn)));
  }
  /// Takes a node from the free list (or grows the slab) and fills it.
  std::uint32_t alloc_node(SimTime at, std::uint64_t seq,
                           InlineFn&& fn) const {
    // Reserving the slab on first use sidesteps vector-doubling relocation
    // of live entries through the warm-up of a fresh queue.
    if (slab_.capacity() == 0) slab_.reserve(1024);
    if (free_head_ != kNil) {
      const std::uint32_t idx = free_head_;
      Node& n = slab_[idx];
      free_head_ = n.next;
      n.e.at = at;
      n.e.seq = seq;
      n.e.fn = std::move(fn);
      n.next = kNil;
      return idx;
    }
    const std::uint32_t idx = static_cast<std::uint32_t>(slab_.size());
    slab_.push_back(Node{kNil, kNil, Entry{at, seq, std::move(fn)}});
    return idx;
  }
  /// Destroys the node's payload and returns it to the free list.
  void free_node(std::uint32_t idx) const {
    Node& n = slab_[idx];
    n.e.fn.reset();
    n.next = free_head_;
    free_head_ = idx;
  }
  /// Free-list push that leaves the callable armed.  Only the batch fire
  /// path uses this: it pushes the node first and lets consume_invoke
  /// disarm and move the capture out before any user code could reuse
  /// the node (alloc_node's move-assign onto a disarmed fn is a no-op
  /// reset).
  void free_node_armed(std::uint32_t idx) const {
    Node& n = slab_[idx];
    n.next = free_head_;
    free_head_ = idx;
  }
  /// True-spill push: sifts the already-allocated node's key into the
  /// binary heap.  Out of line — this is the cold insert tail.
  void spill(std::uint32_t idx);
  /// True when the earliest level-1 bucket fits entirely inside the
  /// level-0 window (bucket start + kL1Tick <= base_ + kWheelBuckets).
  [[nodiscard]] bool l1_due() const {
    return l1_.count > 0 && l1_.min_start + static_cast<SimTime>(kL1Tick) <=
                                base_ + static_cast<SimTime>(kWheelBuckets);
  }
  /// Promotes every due level-1 bucket, earliest first.  Called after
  /// every frontier advance and before head reads.
  void promote_due() const;
  /// Drains the earliest occupied level-1 bucket into level 0.
  void promote_min_bucket() const;
  /// Entry that pop() would return next (nullptr when truly empty);
  /// `from_wheel` says which structure holds it.  Promotes due level-1
  /// buckets first, and fast-forwards the frontier when only far level-1
  /// events remain, so an unpromoted level-1 event is never the head.
  Entry* next_head(bool& from_wheel) const;
  /// Unlinks and destroys the ring head (the entry at l0_.min_start) /
  /// the heap head.  The caller moves anything it wants out first.
  void discard_wheel_head() const;
  void discard_heap_head() const;

  // Lazy promotion and next_head()'s fast-forward mutate the structures
  // behind the logically-const next_time(), hence the mutables.
  mutable std::vector<Key> heap_;            // spill: (time, seq) min-heap
  mutable std::vector<Node> slab_;           // entry storage, all structures
  mutable std::uint32_t free_head_ = kNil;   // slab free list
  // One allocation backs both levels' head arrays (uninitialized —
  // trusted only when the bucket's occupancy bit is set) and occupancy
  // bitmaps (zeroed at construction).  Separate allocations measured ~100x
  // worse to construct: back-to-back 64 KB malloc/free pairs make glibc
  // trim the heap top every cycle.  Total 82.5 KB — still under the mmap
  // threshold.
  std::unique_ptr<std::byte[]> wheel_mem_;
  mutable Level0 l0_;  // the exact-tick ring
  mutable Level1 l1_;
  // The window start (== last popped time).  next_head()'s fast-forward
  // advances it from const context, hence mutable.
  mutable SimTime base_ = 0;
  std::uint64_t next_seq_ = 0;
  mutable Stats stats_;
};

}  // namespace hpcvorx::sim
