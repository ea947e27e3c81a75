// Tests for the event queue's bucket-ring/heap split and for InlineFn's
// inline storage.  The wheel tests deliberately straddle
// the kWheelBuckets window boundary: insert order, same-instant sequence
// order, and stamped no-op events must be indistinguishable from a single
// heap no matter which structure holds an entry.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/inline_fn.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "sim_stamped_reference.hpp"

namespace hpcvorx::sim {
namespace {

constexpr SimTime kW = static_cast<SimTime>(EventQueue::kWheelBuckets);

// ---- InlineFn storage ----

struct DtorCounter {
  int* count;
  explicit DtorCounter(int* c) : count(c) {}
  DtorCounter(DtorCounter&& o) noexcept : count(o.count) { o.count = nullptr; }
  DtorCounter& operator=(DtorCounter&&) = delete;
  DtorCounter(const DtorCounter&) = delete;
  ~DtorCounter() {
    if (count != nullptr) ++*count;
  }
};

// The storage rule: a 48-byte capture fits, a 128-byte one does not (and
// would fail to compile; see the compile_fail_inline_fn_oversized_capture
// ctest).
struct Capture48 {
  char bytes[48];
  void operator()() const {}
};
struct Capture128 {
  char bytes[128];
  void operator()() const {}
};
static_assert(InlineFn::fits<Capture48>);
static_assert(!InlineFn::fits<Capture128>);

TEST(InlineFn, SmallCapturesStayInline) {
  char small[48] = {};
  auto capturing = [small] { (void)small; };
  auto captureless = [] {};
  static_assert(InlineFn::fits<decltype(capturing)>);
  static_assert(InlineFn::fits<decltype(captureless)>);
  InlineFn f(capturing);
  EXPECT_TRUE(f);
  InlineFn g(captureless);
  EXPECT_TRUE(g);
}

TEST(InlineFn, MoveTransfersAndDestroysExactlyOnce) {
  int destroyed = 0;
  int calls = 0;
  {
    InlineFn a([d = DtorCounter(&destroyed), &calls] { ++calls; });
    InlineFn b = std::move(a);
    EXPECT_FALSE(a);  // moved-from is empty
    b();
    EXPECT_EQ(calls, 1);
  }
  // The capture's destructor ran exactly once despite the relocation.
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineFn, ResetDestroysCapture) {
  int destroyed = 0;
  InlineFn f([d = DtorCounter(&destroyed)] {});
  f.reset();
  EXPECT_FALSE(f);
  EXPECT_EQ(destroyed, 1);
}

TEST(InlineFn, ConsumeInvokeCallsOnceAndDestroysOnce) {
  int destroyed = 0;
  int calls = 0;
  InlineFn f([d = DtorCounter(&destroyed), &calls] { ++calls; });
  f.consume_invoke();
  EXPECT_FALSE(f);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(destroyed, 1);
}

// The property the batched fire path relies on: by the time the callable
// runs, its storage is dead — the call may overwrite the very InlineFn it
// was invoked from (the event queue returns a slab node to the free list
// before firing it, so a callback that schedules can land a new event in
// the same slot) and the capture stays readable.
TEST(InlineFn, ConsumeInvokeSurvivesStorageReuseDuringCall) {
  InlineFn f;
  int observed = 0;
  int replacement_calls = 0;
  const int magic = 12345;
  f = [&f, &observed, &replacement_calls, magic] {
    f = [&replacement_calls] { ++replacement_calls; };  // clobber own slot
    observed = magic;  // capture must still be readable after the clobber
  };
  f.consume_invoke();
  EXPECT_EQ(observed, magic);
  EXPECT_TRUE(f);  // holds the replacement, not empty
  f();
  EXPECT_EQ(replacement_calls, 1);
}

// ---- wheel/heap boundary ----

TEST(EventQueueWheel, WindowBoundaryPreservesTimeOrder) {
  EventQueue q;
  std::vector<SimTime> fired;
  auto rec = [&](SimTime t) {
    q.post(t, [&fired, t] { fired.push_back(t); });
  };
  // Straddle the window: in-window times take the ring path, the rest
  // spill to the heap.  Insert far-future first so the spill is populated
  // before any ring entry exists.
  rec(kW + 5);      // heap
  rec(kW - 1);      // ring (last in-window tick)
  rec(kW);          // heap (first out-of-window tick)
  rec(0);           // ring (frontier itself)
  rec(kW / 2);      // ring
  rec(3 * kW + 7);  // heap, far out
  std::vector<SimTime> got;
  while (!q.empty()) {
    auto [at, fn] = q.pop();
    got.push_back(at);
    fn();
  }
  const std::vector<SimTime> want{0, kW / 2, kW - 1, kW, kW + 5, 3 * kW + 7};
  EXPECT_EQ(got, want);
  EXPECT_EQ(fired, want);
}

TEST(EventQueueWheel, SameInstantAcrossStructuresFiresInSeqOrder) {
  EventQueue q;
  std::vector<int> order;
  // Seq 0 lands at kW + 3 while the frontier is 0: heap.  After popping
  // the seq-1 event at kW + 1 the frontier advances, so seq 2 (also at
  // kW + 3) lands in the ring.  Both structures then hold entries for the
  // *same instant*; seq order must still win.
  q.post(kW + 3, [&] { order.push_back(0); });  // heap
  q.post(kW + 1, [&] { order.push_back(1); });  // heap
  {
    auto [at, fn] = q.pop();
    EXPECT_EQ(at, kW + 1);
    fn();
  }
  q.post(kW + 3, [&] { order.push_back(2); });  // ring (window now starts at kW+1)
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 0, 2}));
}

TEST(EventQueueWheel, PastTimeInsertAfterAdvanceGoesToSpill) {
  EventQueue q;
  q.post(5000, [] {});
  auto [at, fn] = q.pop();
  EXPECT_EQ(at, 5000);
  fn();
  // Behind the frontier now; must still fire, and before a later event.
  std::vector<SimTime> got;
  q.post(100, [&] { got.push_back(100); });
  q.post(6000, [&] { got.push_back(6000); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(got, (std::vector<SimTime>{100, 6000}));
}

TEST(EventQueueWheel, ManySameBucketEntriesKeepFifoOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 64; ++i) {
    q.post(1234, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

// Randomized differential test: the queue must fire in exactly the
// (time, seq) order of a reference multiset, across window advances,
// interleaved pops, past-time inserts, and stamped no-op events.
TEST(EventQueueWheel, MatchesReferenceModelUnderRandomWorkload) {
  EventQueue q;
  Rng rng(0xC0FFEEu);
  // Reference: (at, seq) of every unfired event, live or stamped stale.
  testutil::StampedReference ref;
  std::vector<testutil::StampedReference::Key> stampable;
  SimTime frontier = 0;

  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t roll = rng.below(100);
    if (roll < 55 || ref.empty()) {
      // Insert: mostly near-future, sometimes far or in the past.
      SimTime at;
      const std::uint64_t kind = rng.below(10);
      if (kind < 6) {
        at = frontier + static_cast<SimTime>(rng.below(EventQueue::kWheelBuckets));
      } else if (kind < 8) {
        at = frontier + static_cast<SimTime>(
                            rng.below(5 * EventQueue::kWheelBuckets));
      } else {
        at = static_cast<SimTime>(rng.below(
            static_cast<std::uint64_t>(frontier) + 1));
      }
      auto [key, fn] = ref.add(at);
      if (rng.below(4) == 0) stampable.push_back(key);
      q.post(at, std::move(fn));
    } else if (roll < 90) {
      // Pop: must match the reference minimum in both time and sequence.
      auto [at, fn] = q.pop();
      fn();
      ASSERT_TRUE(ref.popped(at)) << "at step " << step;
      frontier = std::max(frontier, at);
    } else if (!stampable.empty()) {
      // Stamp a random stampable event stale (a no-op if it has fired).
      const std::size_t i = rng.below(stampable.size());
      ref.stale(stampable[i]);
      stampable.erase(stampable.begin() + static_cast<std::ptrdiff_t>(i));
    }
    ASSERT_EQ(q.empty(), ref.empty()) << "at step " << step;
  }
  // Drain.
  while (!ref.empty()) {
    auto [at, fn] = q.pop();
    fn();
    ASSERT_TRUE(ref.popped(at));
  }
  EXPECT_TRUE(q.empty());
}

}  // namespace
}  // namespace hpcvorx::sim
