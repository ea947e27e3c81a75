// Tests for the two-level timer wheel: level-1 insert/promote behaviour,
// the promotion frontier, the structure-traffic stats the CI bench rows
// are built on, and a randomized differential test whose time
// distributions deliberately straddle the level-0 / level-1 / spill
// boundaries.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "sim/cpu.hpp"
#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "sim_stamped_reference.hpp"

namespace hpcvorx::sim {
namespace {

constexpr SimTime kL0 = static_cast<SimTime>(EventQueue::kL0Window);
constexpr SimTime kW = static_cast<SimTime>(EventQueue::kWheelBuckets);
constexpr SimTime kL1Tick = static_cast<SimTime>(EventQueue::kL1Tick);
constexpr SimTime kL1Span = static_cast<SimTime>(EventQueue::kL1Span);

TEST(EventQueueL1, SliceCostEventsTakeLevel1NotSpill) {
  // CPU slice-end events at Table 1/2 costs (~100–300 µs) overshoot the
  // level-0 ring; the whole point of the level-1 wheel is that they never
  // reach the heap.
  EventQueue q;
  SimTime now = 0;
  std::vector<SimTime> fired;
  for (int i = 0; i < 500; ++i) {
    const SimTime at = now + usec(100) + (i % 3) * usec(100);
    q.post(at, [&fired, at] { fired.push_back(at); });
    auto [t, fn] = q.pop();
    fn();
    now = t;
  }
  EXPECT_EQ(fired.size(), 500u);
  for (std::size_t i = 1; i < fired.size(); ++i)
    EXPECT_LE(fired[i - 1], fired[i]);
  EXPECT_EQ(q.stats().heap_inserts, 0u);
  EXPECT_GT(q.stats().l1_inserts, 0u);
  EXPECT_EQ(q.stats().l1_inserts, q.stats().l1_promoted);
}

TEST(EventQueueL1, BoundaryTimesLandInTheRightStructure) {
  EventQueue q;
  std::vector<SimTime> got;
  auto rec = [&](SimTime t) {
    q.post(t, [&got, t] { got.push_back(t); });
  };
  rec(kL0 - 1);     // last direct level-0 tick
  rec(kL0);         // first level-1 time
  rec(kW);          // one full ring width out: level 1
  rec(kL1Span - 1); // last level-1 time
  rec(kL1Span);     // first true-spill time
  EXPECT_EQ(q.stats().l0_inserts, 1u);
  EXPECT_EQ(q.stats().l1_inserts, 3u);
  EXPECT_EQ(q.stats().heap_inserts, 1u);
  std::vector<SimTime> popped;
  while (!q.empty()) {
    auto [at, fn] = q.pop();
    popped.push_back(at);
    fn();
  }
  const std::vector<SimTime> want{kL0 - 1, kL0, kW, kL1Span - 1, kL1Span};
  EXPECT_EQ(got, want);
  EXPECT_EQ(popped, want);
}

TEST(EventQueueL1, EventExactlyOnPromotionFrontierKeepsSeqOrder) {
  // Two events at the exact same level-1 bucket-start instant, one posted
  // while the instant is level-1 range (promoted later) and one posted
  // after the frontier advanced so the same tick is direct level-0 range.
  // The promoted one has the smaller sequence number and must fire first.
  EventQueue q;
  const SimTime frontier = ((kL0 + kL1Tick) / kL1Tick) * kL1Tick;  // bucket start
  std::vector<int> order;
  q.post(frontier, [&] { order.push_back(0); });  // level 1 (>= kL0Window)
  q.post(100, [&] { order.push_back(1); });       // level 0, fires first
  {
    auto [at, fn] = q.pop();
    EXPECT_EQ(at, 100);
    fn();
  }
  // The frontier is now 100; `frontier` may still be beyond the direct
  // window, so walk the queue up to it with a stepping stone that lands
  // close enough for a direct level-0 insert of the same tick.
  q.post(frontier - 50, [&] { order.push_back(2); });
  {
    auto [at, fn] = q.pop();
    EXPECT_EQ(at, frontier - 50);
    fn();
  }
  q.post(frontier, [&] { order.push_back(3); });  // same tick, direct level 0
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0, 3}));
}

TEST(EventQueueL1, FastForwardAcrossAnEmptyGap) {
  // A lone event deep in level-1 range: pop() must fast-forward the
  // frontier to its bucket and fire it, without touching the heap.
  EventQueue q;
  int fired = 0;
  q.post(msec(10), [&] { ++fired; });
  EXPECT_EQ(q.next_time(), msec(10));
  auto [at, fn] = q.pop();
  EXPECT_EQ(at, msec(10));
  fn();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.stats().heap_inserts, 0u);
}

TEST(EventQueueL1, HeapAndLevel1TieAtSameInstantFiresInSeqOrder) {
  EventQueue q;
  std::vector<int> order;
  // Seq 0 goes far beyond the level-1 span (heap).  After the frontier
  // advances, the same instant becomes level-1 range for seq 2.
  const SimTime t = kL1Span + usec(100);
  q.post(t, [&] { order.push_back(0); });  // heap
  q.post(usec(200), [&] { order.push_back(1); });  // level 1
  {
    auto [at, fn] = q.pop();
    EXPECT_EQ(at, usec(200));
    fn();
  }
  q.post(t, [&] { order.push_back(2); });  // now level-1 range
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(EventQueueL1, CpuSliceEndStreamNeverSpills) {
  // End to end through the simulator: preemptive CPU jobs at Table 1/2
  // slice costs.  Their slice-end events must ride the wheels (never the
  // heap).  A preempted slice's end event stays queued and fires as a
  // no-op, so every level-1 insert — stale or live — is promoted.
  Simulator sim;
  Cpu cpu(sim, "t");
  int done = 0;
  for (int i = 0; i < 200; ++i) {
    [](Cpu& c, int prio, int* counter) -> Proc {
      co_await c.run(prio, usec(100) + (prio % 3) * usec(100),
                     Category::kUser);
      ++*counter;
    }(cpu, i % 7, &done);
  }
  sim.run();
  EXPECT_EQ(done, 200);
  EXPECT_GT(cpu.preemptions(), 0u);
  EXPECT_EQ(sim.queue_stats().heap_inserts, 0u);
  EXPECT_GT(sim.queue_stats().l1_inserts, 0u);
  EXPECT_EQ(sim.queue_stats().l1_inserts, sim.queue_stats().l1_promoted);
}

TEST(EventQueueL1, FarEdgeInsertNeverAliasesTheFrontierBucket) {
  // Regression (REVIEW 2026-08): with a frontier that is not kL1Tick-
  // aligned (base_ = 100 after the first pop), an event at
  // base_ + kL1Span - 50 has delta < kL1Span but its level-1 bucket
  // index equals the frontier's own bucket.  The old accept window
  // (`delta < kL1Span`) let it into the wheel; advance_l1_min() then
  // reported that bucket's start as ~base_ (kL1Span too early), it was
  // promoted immediately into a level-0 ring bucket ~16.8 ms out of
  // window, and a later direct insert into the same ring bucket fired
  // *after* it: 13000, far_edge, 16434 instead of 13000, 16434,
  // far_edge.  The partial last bucket must spill to the heap instead.
  EventQueue q;
  std::vector<SimTime> fired;
  auto rec = [&](SimTime t) {
    q.post(t, [&fired, t] { fired.push_back(t); });
  };
  rec(100);
  {
    auto [at, fn] = q.pop();  // frontier now 100: mid-level-1-bucket
    ASSERT_EQ(at, 100);
    fn();
  }
  const SimTime far_edge = 100 + kL1Span - 50;  // aliases frontier's bucket
  rec(far_edge);
  rec(13000);                // due level-1 event: its promotion makes
                             // advance_l1_min wrap to the aliased bucket
  rec(100 + 2 * kL1Span);    // true far spill, fires last
  EXPECT_EQ(q.stats().heap_inserts, 2u);  // far_edge spilled, not level 1
  {
    auto [at, fn] = q.pop();
    ASSERT_EQ(at, 13000);
    fn();
  }
  // Direct level-0 insert into the ring bucket the aliased promotion
  // used to corrupt (16434 and far_edge share `at % kWheelBuckets`).
  ASSERT_EQ(16434 % kW, far_edge % kW);
  rec(16434);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, (std::vector<SimTime>{100, 13000, 16434, far_edge,
                                         100 + 2 * kL1Span}));
}

TEST(EventQueueL1, FarEdgeStressWithUnalignedFrontierMatchesReference) {
  // Randomized differential focused on the aliasing edge the broad test
  // below misses: an unaligned frontier, inserts concentrated in the
  // last two level-1 buckets of the window (straddling the truncated
  // accept boundary), sparse near events so advance_l1_min frequently
  // wraps with no intervening occupied bucket, and frequent pops.
  EventQueue q;
  Rng rng(0xFA11ED6Eu);
  std::set<std::pair<SimTime, std::uint64_t>> ref;
  std::uint64_t seq = 0;
  SimTime frontier = 0;
  std::vector<std::pair<SimTime, std::uint64_t>> fired;
  const auto insert = [&](SimTime at) {
    const std::uint64_t s = seq++;
    q.post(at, [&fired, at, s] { fired.emplace_back(at, s); });
    ref.emplace(at, s);
  };
  insert(101);  // first pop leaves the frontier mid-bucket
  for (int step = 0; step < 20000; ++step) {
    if (rng.below(100) < 50 || ref.empty()) {
      SimTime at;
      const std::uint64_t kind = rng.below(8);
      if (kind < 5) {
        // The far edge: the last two level-1 buckets of the window,
        // spanning the truncated accept boundary on both sides.
        at = frontier + kL1Span - 2 * kL1Tick +
             static_cast<SimTime>(rng.below(2 * EventQueue::kL1Tick));
      } else if (kind < 7) {
        // A due event so promotions (and min-bucket wraps) happen.
        at = frontier + kL0 + static_cast<SimTime>(rng.below(3 * kL1Tick));
      } else {
        // Keep the frontier unaligned: a near, odd-offset event.
        at = frontier + 1 + static_cast<SimTime>(rng.below(977));
      }
      insert(at);
    } else {
      auto [at, fn] = q.pop();
      fn();
      ASSERT_FALSE(fired.empty());
      ASSERT_EQ(fired.back(), *ref.begin()) << "at step " << step;
      frontier = std::max(frontier, at);
      ref.erase(ref.begin());
    }
  }
  while (!ref.empty()) {
    auto [at, fn] = q.pop();
    fn();
    ASSERT_EQ(fired.back(), *ref.begin());
    ASSERT_EQ(at, ref.begin()->first);
    ref.erase(ref.begin());
  }
  EXPECT_TRUE(q.empty());
  // The distribution genuinely straddled the truncated boundary.
  EXPECT_GT(q.stats().l1_inserts, 0u);
  EXPECT_GT(q.stats().heap_inserts, 0u);
}

// Randomized differential test against a reference (time, seq) multiset,
// with the insert distribution spanning every structure boundary: direct
// level-0 times, the narrowed window edge, level-1 times, the level-1
// horizon, true far-future spill, past times, and exact bucket-start
// multiples (the promotion frontier).  Interleaves pops and stamped
// no-op events (stamped in any structure, including after promotion)
// exactly like the level-0 test in sim_wheel_inline_test.cpp.
TEST(EventQueueL1, MatchesReferenceModelAcrossBoundaryDistributions) {
  EventQueue q;
  Rng rng(0xB16B00B5u);
  testutil::StampedReference ref;
  std::vector<testutil::StampedReference::Key> stampable;
  SimTime frontier = 0;

  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t roll = rng.below(100);
    if (roll < 55 || ref.empty()) {
      SimTime at;
      const std::uint64_t kind = rng.below(16);
      if (kind < 5) {
        // Direct level-0 window.
        at = frontier + static_cast<SimTime>(rng.below(EventQueue::kL0Window));
      } else if (kind < 10) {
        // Level-1 range: slice-cost-like distances.
        at = frontier + kL0 +
             static_cast<SimTime>(rng.below(EventQueue::kL1Span -
                                            EventQueue::kL0Window));
      } else if (kind < 12) {
        // True spill: beyond the level-1 horizon.
        at = frontier + kL1Span +
             static_cast<SimTime>(rng.below(3 * EventQueue::kL1Span));
      } else if (kind < 14) {
        // Exact boundaries, including level-1 bucket starts (the
        // promotion frontier) and the window edges.
        const SimTime bucket_start =
            ((frontier + kL0 + static_cast<SimTime>(rng.below(64)) * kL1Tick) /
             kL1Tick) *
            kL1Tick;
        const SimTime choices[] = {frontier,
                                   frontier + kL0 - 1,
                                   frontier + kL0,
                                   frontier + kW,
                                   bucket_start,
                                   frontier + kL1Span - 1,
                                   frontier + kL1Span};
        at = choices[rng.below(sizeof(choices) / sizeof(choices[0]))];
      } else {
        // Past times (spill behind the frontier).
        at = static_cast<SimTime>(
            rng.below(static_cast<std::uint64_t>(frontier) + 1));
      }
      auto [key, fn] = ref.add(at);
      if (rng.below(4) == 0) stampable.push_back(key);
      q.post(at, std::move(fn));
    } else if (roll < 90) {
      auto [at, fn] = q.pop();
      fn();
      ASSERT_TRUE(ref.popped(at)) << "at step " << step;
      frontier = std::max(frontier, at);
    } else if (!stampable.empty()) {
      // Stamp a random stampable event stale — it may sit in either wheel
      // level (promoted or not) or the heap, or have fired already.
      const std::size_t i = rng.below(stampable.size());
      ref.stale(stampable[i]);
      stampable.erase(stampable.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_EQ(q.empty(), ref.empty()) << "at step " << step;
  }
  while (!ref.empty()) {
    auto [at, fn] = q.pop();
    fn();
    ASSERT_TRUE(ref.popped(at));
  }
  EXPECT_TRUE(q.empty());
  // The workload genuinely exercised all three structures.
  EXPECT_GT(q.stats().l0_inserts, 0u);
  EXPECT_GT(q.stats().l1_inserts, 0u);
  EXPECT_GT(q.stats().heap_inserts, 0u);
  EXPECT_GT(q.stats().l1_promoted, 0u);
}

}  // namespace
}  // namespace hpcvorx::sim
