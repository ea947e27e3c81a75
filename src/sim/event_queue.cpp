#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

// Ordering correctness of the two-level wheel rests on one invariant:
//
//   PROMOTION INVARIANT.  No event may enter a level-0 tick bucket while
//   an earlier-sequence event for the same tick still sits in level 1.
//
// Three rules uphold it (proof sketch in DESIGN.md §9):
//   1. Direct level-0 inserts accept only `at - base_ < kL0Window`, one
//      level-1 bucket short of the ring's width.  Any directly-reachable
//      tick therefore lies in a level-1 bucket that already satisfied the
//      promotion condition (bucket end <= base_ + kWheelBuckets).
//   2. promote_due() drains every such bucket immediately whenever base_
//      advances — at the end of pop() and inside next_head() — so rule 1's
//      bucket was emptied before the direct insert could race it.
//   3. Promotion walks a bucket's FIFO in insertion order and appends to
//      the exact-tick ring FIFOs, which preserves per-tick sequence order.
//
// base_ only ever advances, and only to times <= the global minimum event
// time, so both wheels' circular mappings stay unambiguous for resident
// events: level 0 spans kWheelBuckets ticks, and level 1 accepts only
// times strictly before Level1::start(base_) + kL1Span, so a resident
// event's bucket index can never alias the frontier's own bucket (see
// insert()).

namespace hpcvorx::sim {

namespace {
// Max-heap comparator that makes the spill heap a (time, seq) min-heap.
// It reads only the keys held in the heap array — a sift never touches a
// slab node.  A closure type, not a function, so the heap algorithms
// inline the compare instead of calling through a pointer.
constexpr auto key_later = [](const EventQueue::Key& a,
                              const EventQueue::Key& b) {
  return b.before(a.at, a.seq);
};
}  // namespace

EventQueue::EventQueue()
    : wheel_mem_(std::make_unique_for_overwrite<std::byte[]>(
          Level0::kBytes + Level1::kBytes)) {
  l1_.place(l0_.place(wheel_mem_.get()));
}

void EventQueue::spill(std::uint32_t idx) {
  const Entry& e = slab_[idx].e;
  heap_.push_back(Key{e.at, e.seq, idx});
  ++stats_.heap_inserts;
  std::push_heap(heap_.begin(), heap_.end(), key_later);
}

void EventQueue::promote_due() const {
  // The earliest-bucket start makes the common case (nothing due) one
  // compare.  Buckets promote earliest-first, so promoted events are
  // always strictly earlier than everything still resident in level 1.
  while (l1_due()) promote_min_bucket();
}

void EventQueue::promote_min_bucket() const {
  const std::size_t b = Level1::index(l1_.min_start);
  assert(l1_.occupied(b));
  std::uint32_t idx = l1_.heads[b];
  l1_.clear(b);
  while (idx != kNil) {
    Node& n = slab_[idx];
    const std::uint32_t next = n.next;
    --l1_.count;
    n.next = kNil;
    l0_.link(slab_, idx);
    ++stats_.l1_promoted;
    idx = next;
  }
  if (l1_.count > 0) {
    l1_.min_start = Level1::time_of(l1_.next_occupied(b + 1), base_);
  }
}

EventQueue::Entry* EventQueue::next_head(bool& from_wheel) const {
  promote_due();
  // Fast-forward: if level 0 is empty and the heap holds nothing earlier
  // than the earliest level-1 bucket, nothing can fire before that bucket
  // — jump the frontier to its start and promote it.  (After promote_due,
  // a non-empty level 0 is always strictly earlier than all of level 1,
  // so only the heap needs checking.)
  while (l1_.count > 0 && l0_.count == 0 &&
         (heap_.empty() || heap_.front().at >= l1_.min_start)) {
    base_ = std::max(base_, l1_.min_start);
    promote_due();
  }
  if (l0_.count == 0) {
    from_wheel = false;
    return heap_.empty() ? nullptr : &slab_[heap_.front().idx].e;
  }
  Entry& w = slab_[l0_.heads[Level0::index(l0_.min_start)]].e;
  from_wheel = heap_.empty() || !heap_.front().before(w.at, w.seq);
  return from_wheel ? &w : &slab_[heap_.front().idx].e;
}

void EventQueue::discard_wheel_head() const {
  const std::size_t b = Level0::index(l0_.min_start);
  const std::uint32_t idx = l0_.heads[b];
  Node& n = slab_[idx];
  const std::uint32_t next = n.next;
  const std::uint32_t tail = n.bucket_tail;
  free_node(idx);
  --l0_.count;
  if (next == kNil) {
    l0_.clear(b);
    // The emptied bucket held the ring minimum, so every occupied bucket
    // lies circularly after it: the first set bit from b + 1 is the new
    // minimum.
    if (l0_.count > 0) {
      l0_.min_start = Level0::time_of(l0_.next_occupied(b + 1), base_);
    }
  } else {
    slab_[next].bucket_tail = tail;  // tail rides on the new head
    l0_.heads[b] = next;
  }
}

void EventQueue::discard_heap_head() const {
  std::pop_heap(heap_.begin(), heap_.end(), key_later);
  free_node(heap_.back().idx);
  heap_.pop_back();
}

SimTime EventQueue::next_time() const {
  bool from_wheel = false;
  const Entry* head = next_head(from_wheel);
  assert(head != nullptr);
  return head->at;
}

std::pair<SimTime, InlineFn> EventQueue::pop() {
  bool from_wheel = false;
  Entry* head = next_head(from_wheel);
  assert(head != nullptr);
  std::pair<SimTime, InlineFn> out{head->at, std::move(head->fn)};
  if (from_wheel) {
    discard_wheel_head();
  } else {
    discard_heap_head();
  }
  // Advance the window: the popped entry was the global minimum, so
  // everything still resident is >= at and keeps its bucket mapping.
  // Promoting due level-1 buckets *now* (not at the next head read) keeps
  // the promotion invariant against inserts landing before the next pop.
  base_ = std::max(base_, out.first);
  promote_due();
  return out;
}

std::size_t EventQueue::drain_bucket(DrainBatch& out, SimTime limit) {
  assert(out.exhausted() && "refusing to drain over unfired batch entries");
  out.reset_fill(this);
  // Find the head as pop() would: promote due level-1 buckets and, when
  // level 0 is empty, fast-forward into the earliest level-1 bucket.  The
  // fast-forward cannot jump unfired batch entries — the batch is
  // exhausted — so insert routing still matches the pop() path.
  bool from_wheel = false;
  const Entry* head = next_head(from_wheel);
  // Empty, heap-resident head, or deadline before the head: pop() (or
  // nothing) serves it.
  if (head == nullptr || !from_wheel || head->at > limit) return 0;
  const SimTime t0 = head->at;
  // Advance the frontier exactly as pop() would for the head event.  Due
  // level-1 buckets promote now, so the whole span below is resident in
  // the ring before collection starts — and by the promotion-order
  // argument (DESIGN.md §9/§13), everything still in level 1 afterwards
  // lies beyond base_ + kL0Window, past the end of this span.
  base_ = std::max(base_, t0);
  promote_due();
  // Inclusive end of the drain span: the remainder of the head's level-1
  // bucket, clipped to `limit` so a run_until() deadline never overshoots
  // mid-bucket.  Inclusive bounds sidestep int64 overflow at the far edge.
  constexpr SimTime kMaxTime = std::numeric_limits<SimTime>::max();
  const SimTime bucket_start = Level1::start(t0);
  const SimTime bucket_last =
      bucket_start > kMaxTime - static_cast<SimTime>(kL1Tick - 1)
          ? kMaxTime
          : bucket_start + static_cast<SimTime>(kL1Tick - 1);
  const SimTime last = std::min(bucket_last, limit);
  // Single-pass sweep, in time order, straight into the batch.  Every
  // ring resident lies in [t0, t0 + kWheelBuckets), so one circular lap of
  // the occupancy bitmap from the head's bucket visits each occupied
  // bucket in time order.  Each 1 ns bucket holds one instant and its
  // FIFO is insertion order, so the concatenation is exactly the
  // (time, seq) order pop() would produce.
  std::size_t b = Level0::index(t0);
  while (l0_.count > 0) {
    b = l0_.next_occupied(b);
    const SimTime bt = Level0::time_of(b, base_);
    if (bt > last) {
      // First occupied bucket past the span: by the same time-order
      // argument it holds the new ring minimum.
      l0_.min_start = bt;
      break;
    }
    l0_.clear(b);
    // Borrow, don't move: each node stays slab-resident (unlinked from
    // every bucket) until the batch cursor fires it.
    for (std::uint32_t idx = l0_.heads[b]; idx != kNil;
         idx = slab_[idx].next) {
      --l0_.count;
      out.idx_.push_back(idx);
    }
  }
  assert(!out.exhausted() && "the wheel head must land in the batch");
  ++stats_.bucket_drains;
  stats_.drained_events += out.size();
  return out.size();
}

}  // namespace hpcvorx::sim
