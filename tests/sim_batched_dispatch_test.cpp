// Tests for bucket-at-a-time dispatch (DESIGN.md §13): a randomized
// differential against the event-at-a-time reference order, the directed
// edges of the batch protocol (mid-bucket run_until deadlines, same-tick
// inserts racing a live batch), and the receive-path coalescing order
// contract at the VORX kernel layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"
#include "sim_stamped_reference.hpp"
#include "vorx/node.hpp"
#include "vorx/system.hpp"

namespace hpcvorx {
namespace {

using sim::EventQueue;
using sim::SimTime;

constexpr SimTime kL0 = static_cast<SimTime>(EventQueue::kL0Window);
constexpr SimTime kL1Tick = static_cast<SimTime>(EventQueue::kL1Tick);
constexpr SimTime kL1Span = static_cast<SimTime>(EventQueue::kL1Span);

// Randomized differential: the Simulator's batched dispatch loop must
// fire events in exactly the (time, insertion-seq) order the reference
// multiset predicts — the same order the old pop()-per-event loop
// produced.  The insert distribution straddles every structure boundary
// (level-0 window, level-1 range, true spill, exact bucket starts, past
// times), inserts land mid-bucket while a batch is live (the
// earlier_than interleave), and random stamping turns events stale —
// the Cpu slice-end pattern — including entries already drained into the
// batch, which must then fire as no-ops in their (time, seq) slot.
TEST(BatchedDispatch, MatchesEventAtATimeReferenceAcrossBoundaries) {
  sim::Simulator sim;
  sim::Rng rng(0xD15BA7C4u);
  sim::testutil::StampedReference ref;
  std::vector<sim::testutil::StampedReference::Key> stampable;
  SimTime frontier = 0;

  const auto step_fires_head = [&] {
    ASSERT_FALSE(ref.empty());
    ASSERT_TRUE(sim.step());
    ASSERT_TRUE(ref.popped(sim.now()));
    frontier = std::max(frontier, sim.now());
  };

  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t roll = rng.below(100);
    if (roll < 55 || ref.empty()) {
      SimTime at;
      const std::uint64_t kind = rng.below(16);
      if (kind < 5) {
        // Direct level-0 window — most of these land in the bucket the
        // dispatcher is currently draining.
        at = frontier + static_cast<SimTime>(rng.below(EventQueue::kL0Window));
      } else if (kind < 10) {
        // Level-1 range: slice-cost-like distances.
        at = frontier + kL0 +
             static_cast<SimTime>(
                 rng.below(EventQueue::kL1Span - EventQueue::kL0Window));
      } else if (kind < 12) {
        // True spill: beyond the level-1 horizon (stays in the heap and
        // must interleave with batch entries via earlier_than).
        at = frontier + kL1Span +
             static_cast<SimTime>(rng.below(3 * EventQueue::kL1Span));
      } else if (kind < 14) {
        // Exact boundaries: window edges and level-1 bucket starts.
        const SimTime bucket_start =
            ((frontier + kL0 + static_cast<SimTime>(rng.below(64)) * kL1Tick) /
             kL1Tick) *
            kL1Tick;
        const SimTime choices[] = {frontier,          frontier + kL0 - 1,
                                   frontier + kL0,    bucket_start,
                                   frontier + kL1Span - 1,
                                   frontier + kL1Span};
        at = choices[rng.below(sizeof(choices) / sizeof(choices[0]))];
      } else {
        // Past times — the Simulator clamps these to now(), so they land
        // same-tick behind whatever is firing and must come out in
        // insertion-seq order (a direct stress of the earlier_than
        // interleave against a live batch).
        at = static_cast<SimTime>(
            rng.below(static_cast<std::uint64_t>(frontier) + 1));
      }
      // Mirror Simulator::post_at: requested past times schedule at now().
      at = std::max(at, sim.now());
      auto [key, fn] = ref.add(at);
      if (rng.below(4) == 0) stampable.push_back(key);
      sim.post_at(at, std::move(fn));
    } else if (roll < 90) {
      step_fires_head();
      if (::testing::Test::HasFatalFailure()) return;
    } else if (!stampable.empty()) {
      // Stamp a random stampable event stale — it may sit in either wheel
      // level, the heap, already inside the drained batch, or have fired.
      const std::size_t i = rng.below(stampable.size());
      ref.stale(stampable[i]);
      stampable.erase(stampable.begin() + static_cast<std::ptrdiff_t>(i));
    }
  }
  while (!ref.empty()) {
    step_fires_head();
    if (::testing::Test::HasFatalFailure()) return;
  }
  // Stale events fire as no-ops in their slots, so nothing remains.
  EXPECT_FALSE(sim.step());
  EXPECT_EQ(sim.pending_events(), 0u);
}

// run_until with a deadline in the middle of an already-drained bucket:
// events up to the deadline fire, the rest of the batch stays pending for
// the next call, and an event inserted between the calls — earlier than
// the surviving batch tail — still fires first.
TEST(BatchedDispatch, RunUntilStopsMidBucketAndKeepsTheTail) {
  sim::Simulator sim;
  std::vector<SimTime> fired;
  for (const SimTime at : {SimTime{10}, SimTime{20}, SimTime{30}}) {
    sim.post_at(at, [&fired, at] { fired.push_back(at); });
  }
  sim.run_until(20);
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20}));
  EXPECT_EQ(sim.now(), 20);
  EXPECT_EQ(sim.pending_events(), 1u);

  sim.run_until(25);  // no event in (20, 25]: time still advances
  EXPECT_EQ(fired.size(), 2u);
  EXPECT_EQ(sim.now(), 25);

  // A late insert that orders before the batch-resident 30.
  sim.post_at(27, [&fired] { fired.push_back(27); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<SimTime>{10, 20, 27, 30}));
  EXPECT_EQ(sim.now(), 30);
}

// Same-tick inserts made while their instant's batch is live must fire in
// insertion order after the already-drained entries (ties go to the batch:
// drained entries always hold the smaller seqs).
TEST(BatchedDispatch, SameTickInsertDuringBatchKeepsSeqOrder) {
  sim::Simulator sim;
  std::vector<int> fired;
  constexpr SimTime kT = 500;
  for (int i = 0; i < 8; ++i) {
    sim.post_at(kT, [&fired, &sim, i] {
      fired.push_back(i);
      if (i == 0) {
        // Inserted at the same instant while entries 1..7 sit unfired in
        // the batch: must run after all of them.
        sim.post_at(kT, [&fired] { fired.push_back(100); });
      }
    });
  }
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 100}));
}

// The VORX-layer order contract of receive coalescing: a two-source
// same-window burst into one kernel is delivered per-source FIFO, and the
// burst genuinely coalesces (fewer pump resumes than arrival interrupts).
TEST(KernelCoalescing, BurstPreservesPerSourceOrderAndCoalesces) {
  sim::Simulator sim;
  vorx::SystemConfig cfg;
  cfg.nodes = 3;
  vorx::System sys(sim, cfg);
  constexpr std::uint32_t kKind = 4242;  // disjoint from vorx::msg kinds
  std::vector<std::pair<int, std::uint32_t>> got;
  sys.node(0).kernel().register_handler(kKind, [&got](hw::Frame f) {
    got.emplace_back(f.src, f.payload_bytes);
  });
  constexpr int kPerSource = 16;
  for (int i = 0; i < kPerSource; ++i) {
    for (const int src : {1, 2}) {
      hw::Frame f;
      f.kind = kKind;
      f.dst = sys.node(0).station();
      f.payload_bytes = static_cast<std::uint32_t>(i);
      sys.node(src).kernel().send(std::move(f));
    }
  }
  sim.run();

  ASSERT_EQ(got.size(), static_cast<std::size_t>(2 * kPerSource));
  std::uint32_t next_from[3] = {0, 0, 0};
  for (const auto& [src, seq] : got) {
    ASSERT_TRUE(src == sys.node(1).station() || src == sys.node(2).station());
    const int slot = src == sys.node(1).station() ? 1 : 2;
    EXPECT_EQ(seq, next_from[slot]) << "out-of-order from src " << src;
    ++next_from[slot];
  }
  const vorx::Kernel& k = sys.node(0).kernel();
  EXPECT_EQ(k.rx_interrupts(), static_cast<std::uint64_t>(2 * kPerSource));
  EXPECT_LE(k.rx_resumes(), k.rx_interrupts());
  // Back-to-back arrivals queue behind the per-frame copy charge, so the
  // burst must absorb at least some interrupts without a resume.
  EXPECT_LT(k.rx_resumes(), k.rx_interrupts());
}

}  // namespace
}  // namespace hpcvorx
