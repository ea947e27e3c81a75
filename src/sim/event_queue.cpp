#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
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
// times strictly before l1_bucket_start(base_) + kL1Span, so a resident
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

EventQueue::EventQueue() {
  constexpr std::size_t kBucketBytes =
      static_cast<std::size_t>(kWheelBuckets) * sizeof(std::uint32_t);
  constexpr std::size_t kBitmapBytes =
      static_cast<std::size_t>(kWords) * sizeof(std::uint64_t);
  constexpr std::size_t kL1BucketBytes =
      static_cast<std::size_t>(kL1Buckets) * sizeof(std::uint32_t);
  constexpr std::size_t kL1BitmapBytes =
      static_cast<std::size_t>(kL1Words) * sizeof(std::uint64_t);
  wheel_mem_ = std::make_unique_for_overwrite<std::byte[]>(
      kBucketBytes + kBitmapBytes + kL1BucketBytes + kL1BitmapBytes);
  std::byte* p = wheel_mem_.get();
  buckets_ = reinterpret_cast<std::uint32_t*>(p);
  occupancy_ = reinterpret_cast<std::uint64_t*>(p + kBucketBytes);
  l1_buckets_ =
      reinterpret_cast<std::uint32_t*>(p + kBucketBytes + kBitmapBytes);
  l1_occupancy_ = reinterpret_cast<std::uint64_t*>(p + kBucketBytes +
                                                   kBitmapBytes +
                                                   kL1BucketBytes);
  std::memset(occupancy_, 0, kBitmapBytes);
  std::memset(l1_occupancy_, 0, kL1BitmapBytes);
}

void EventQueue::spill(std::uint32_t idx) {
  const Entry& e = slab_[idx].e;
  heap_.push_back(Key{e.at, e.seq, idx});
  ++stats_.heap_inserts;
  std::push_heap(heap_.begin(), heap_.end(), key_later);
}

void EventQueue::promote_due() const {
  // A bucket is due once it fits entirely inside the level-0 window; the
  // earliest-bucket pointer makes the common case (nothing due) one
  // compare.  Buckets promote earliest-first, so promoted events are
  // always strictly earlier than everything still resident in level 1.
  while (l1_count_ > 0 &&
         l1_min_start_ + static_cast<SimTime>(kL1Tick) <=
             base_ + static_cast<SimTime>(kWheelBuckets)) {
    promote_min_bucket();
  }
}

void EventQueue::promote_min_bucket() const {
  const std::size_t b = l1_bucket_index(l1_min_start_);
  assert(l1_bucket_occupied(b));
  std::uint32_t idx = l1_buckets_[b];
  l1_occupancy_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
  while (idx != kNil) {
    Node& n = slab_[idx];
    const std::uint32_t next = n.next;
    --l1_count_;
    n.next = kNil;
    link_l0(idx);
    ++stats_.l1_promoted;
    idx = next;
  }
  if (l1_count_ > 0) advance_l1_min(b);
}

EventQueue::Entry* EventQueue::next_head(bool& from_wheel) const {
  promote_due();
  // Fast-forward: if level 0 is empty and the heap holds nothing earlier
  // than the earliest level-1 bucket, nothing can fire before that bucket
  // — jump the frontier to its start and promote it.  (After promote_due,
  // a non-empty level 0 is always strictly earlier than all of level 1,
  // so only the heap needs checking.)
  while (l1_count_ > 0 && wheel_count_ == 0 &&
         (heap_.empty() || heap_.front().at >= l1_min_start_)) {
    base_ = std::max(base_, l1_min_start_);
    promote_due();
  }
  const bool have_wheel = wheel_count_ > 0;
  const bool have_heap = !heap_.empty();
  if (!have_wheel && !have_heap) return nullptr;
  if (have_wheel && !have_heap) {
    from_wheel = true;
    return &slab_[wheel_head_].e;
  }
  if (!have_wheel) {
    from_wheel = false;
    return &slab_[heap_.front().idx].e;
  }
  Entry& w = slab_[wheel_head_].e;
  const Key& h = heap_.front();
  from_wheel = !h.before(w.at, w.seq);
  return from_wheel ? &w : &slab_[h.idx].e;
}

void EventQueue::discard_wheel_head() const {
  const std::size_t b = bucket_index(wheel_min_);
  const std::uint32_t idx = wheel_head_;
  Node& n = slab_[idx];
  const std::uint32_t next = n.next;
  const std::uint32_t tail = n.bucket_tail;
  free_node(idx);
  --wheel_count_;
  if (next == kNil) {
    occupancy_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
    if (wheel_count_ > 0) advance_wheel_min(b);
  } else {
    slab_[next].bucket_tail = tail;  // tail rides on the new head
    buckets_[b] = next;
    wheel_head_ = next;
  }
}

void EventQueue::discard_heap_head() const {
  std::pop_heap(heap_.begin(), heap_.end(), key_later);
  free_node(heap_.back().idx);
  heap_.pop_back();
}

void EventQueue::advance_wheel_min(std::size_t emptied_bucket) const {
  // wheel_min_ was the global ring minimum, so every occupied bucket lies
  // circularly *after* its bucket in window order; the first set bit from
  // emptied_bucket + 1 onwards is the new minimum.
  const std::size_t b = (emptied_bucket + 1) & kMask;
  std::size_t word = b >> 6;
  std::uint64_t bits = occupancy_[word] & (~std::uint64_t{0} << (b & 63));
  for (std::size_t scanned = 0; scanned <= kWords; ++scanned) {
    if (bits != 0) {
      const std::size_t found =
          (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      wheel_min_ = time_of_bucket(found);
      wheel_head_ = buckets_[found];
      return;
    }
    word = (word + 1) & (kWords - 1);
    bits = occupancy_[word];
  }
  assert(false && "wheel_count_ > 0 but no occupied bucket");
}

void EventQueue::advance_l1_min(std::size_t emptied_bucket) const {
  const std::size_t b = (emptied_bucket + 1) & kL1Mask;
  std::size_t word = b >> 6;
  std::uint64_t bits = l1_occupancy_[word] & (~std::uint64_t{0} << (b & 63));
  for (std::size_t scanned = 0; scanned <= kL1Words; ++scanned) {
    if (bits != 0) {
      const std::size_t found =
          (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
      l1_min_start_ = time_of_l1_bucket(found);
      return;
    }
    word = (word + 1) & (kL1Words - 1);
    bits = l1_occupancy_[word];
  }
  assert(false && "l1_count_ > 0 but no occupied level-1 bucket");
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
  constexpr SimTime kMaxTime = std::numeric_limits<SimTime>::max();
  // Promote before reading any head, exactly as next_head() does: a
  // level-1 insert can land in an already-due bucket (promoted and
  // re-occupied since the last frontier move) holding an event earlier
  // than the current ring minimum.  One compare when nothing is due.
  promote_due();

  if (wheel_count_ == 0 && l1_count_ > 0) {
    // Level 0 is empty, so the head is the earliest level-1 bucket's
    // minimum or the heap front.  Drain the level-1 bucket *directly*
    // into the batch — the fused equivalent of next_head()'s
    // fast-forward + promote_due() + a ring sweep, minus the per-event
    // ring round-trip (link_l0, bucket-min bookkeeping, unlink).  Every
    // exit below leaves the frontier, stats, and structures in exactly
    // the state the promote-then-sweep path would have.
    const std::size_t b = l1_bucket_index(l1_min_start_);
    assert(l1_bucket_occupied(b));
    // Single peek+collect pass: the bucket's (time, seq) minimum, with the
    // sort keys gathered as a side effect — nothing is unlinked until a
    // branch below commits.  Within one instant FIFO order is seq order,
    // so the first entry seen at the minimum time carries the minimum seq.
    out.keys_.clear();
    SimTime min_at = kMaxTime;
    std::uint64_t min_seq = 0;
    for (std::uint32_t idx = l1_buckets_[b]; idx != kNil;
         idx = slab_[idx].next) {
      const Entry& e = slab_[idx].e;
      if (out.keys_.empty() || e.at < min_at) {
        min_at = e.at;
        min_seq = e.seq;
      }
      out.keys_.push_back({e.at, e.seq, idx});
    }
    // next_head()'s fast-forward, for the exits that leave the bucket's
    // events queue-resident.
    const auto promote_bucket = [this] {
      base_ = std::max(base_, l1_min_start_);
      promote_due();
    };
    if (!heap_.empty() && heap_.front().before(min_at, min_seq)) {
      // The heap serves the next event via pop().  Mirror next_head(): its
      // fast-forward promotes this bucket first iff the heap front is not
      // strictly before the bucket's start.
      if (heap_.front().at >= l1_min_start_) promote_bucket();
      return 0;
    }
    if (min_at > limit) {
      // Deadline before the head.  next_head() — reached through the
      // caller's next_time() — would have fast-forwarded and promoted;
      // match that end state, then report nothing to drain.
      promote_bucket();
      return 0;
    }
    const SimTime head_bucket_last =
        l1_bucket_start(min_at) + static_cast<SimTime>(kL1Tick - 1);
    if (head_bucket_last > limit) {
      // Mid-bucket deadline (rare): promote and take the ring sweep below
      // so the clipped tail stays ring-resident.
      promote_bucket();
    } else {
      // Direct drain: unlink the bucket and keep the entries where they
      // are — the batch borrows their slab nodes.
      l1_occupancy_[b >> 6] &= ~(std::uint64_t{1} << (b & 63));
      l1_count_ -= out.keys_.size();
      if (l1_count_ > 0) advance_l1_min(b);
      // These events skip the ring but are promoted all the same — count
      // them so the sampled counter tracks match the promote-then-sweep
      // path at every post-fire sampling instant.
      stats_.l1_promoted += out.keys_.size();
      // A 4 µs bucket holds many instants: sort by (time, seq) for the
      // exact pop() order.  The ring sweep gets this order for free from
      // its per-instant buckets; here one sort of packed 24-byte keys —
      // no slab chases from the comparator — is cheaper than bouncing
      // every event through the ring.
      std::sort(out.keys_.begin(), out.keys_.end(),
                [](const Key& x, const Key& y) {
                  return x.before(y.at, y.seq);
                });
      for (const Key& k : out.keys_) out.idx_.push_back(k.idx);
      base_ = std::max(base_, min_at);
      promote_due();
      ++stats_.bucket_drains;
      stats_.drained_events += out.size();
      return out.size();
    }
  }

  if (wheel_count_ == 0) return 0;  // heap-only or empty: pop() serves it
  {
    // Ring head duel against the heap front, as next_head() orders them.
    const Entry& w = slab_[wheel_head_].e;
    if (!heap_.empty() && heap_.front().before(w.at, w.seq)) return 0;
    if (w.at > limit) return 0;
  }
  const SimTime t0 = wheel_min_;
  // Advance the frontier exactly as pop() would for the head event.  Due
  // level-1 buckets promote now, so the whole span below is resident in
  // the ring before collection starts — and by the promotion-order
  // argument (DESIGN.md §9/§13), everything still in level 1 afterwards
  // lies beyond base_ + kL0Window, past the end of this span.  (An
  // already-due bucket can exist here — a level-1 insert may land in a
  // bucket the frontier has reached; promoting before the sweep folds
  // such events into the batch instead of stranding them.)
  base_ = std::max(base_, t0);
  promote_due();
  // Inclusive end of the drain span: the remainder of the head's level-1
  // bucket, clipped to `limit` so a run_until() deadline never overshoots
  // mid-bucket.  Inclusive bounds sidestep int64 overflow at the far edge.
  const SimTime bucket_start = l1_bucket_start(t0);
  const SimTime bucket_last =
      bucket_start > kMaxTime - static_cast<SimTime>(kL1Tick - 1)
          ? kMaxTime
          : bucket_start + static_cast<SimTime>(kL1Tick - 1);
  const SimTime last = std::min(bucket_last, limit);
  // Single-pass sweep, in time order, straight into the batch arrays.
  // The occupancy bitmap is walked word-wise starting at the head's
  // bucket: every ring resident lies in [t0, t0 + kWheelBuckets), so one
  // circular lap visits each occupied bucket in time order.  Each 1 ns
  // bucket holds one instant and its FIFO is insertion order, so the
  // concatenation is exactly the (time, seq) order pop() would produce.
  const std::size_t b0 = bucket_index(t0);
  std::size_t word = b0 >> 6;
  std::uint64_t bits = occupancy_[word] & (~std::uint64_t{0} << (b0 & 63));
  while (wheel_count_ > 0) {
    while (bits == 0) {
      word = (word + 1) & (kWords - 1);
      bits = occupancy_[word];
    }
    const std::size_t b =
        (word << 6) + static_cast<std::size_t>(std::countr_zero(bits));
    const SimTime bt = time_of_bucket(b);
    if (bt > last) {
      // First occupied bucket past the span: by the same time-order
      // argument it holds the new ring minimum — no advance_wheel_min()
      // rescan needed.
      wheel_min_ = bt;
      wheel_head_ = buckets_[b];
      break;
    }
    bits &= bits - 1;
    occupancy_[word] &= ~(std::uint64_t{1} << (b & 63));
    // Borrow, don't move: each node stays slab-resident (unlinked from
    // every bucket) until the batch cursor fires it.
    for (std::uint32_t idx = buckets_[b]; idx != kNil; idx = slab_[idx].next) {
      --wheel_count_;
      out.idx_.push_back(idx);
    }
  }
  assert(!out.exhausted() && "the wheel head must land in the batch");
  ++stats_.bucket_drains;
  stats_.drained_events += out.size();
  return out.size();
}

}  // namespace hpcvorx::sim
