// Tests for bucket-at-a-time dispatch (DESIGN.md §13): a randomized
// differential against the event-at-a-time reference order, the directed
// edges of the batch protocol (mid-bucket run_until deadlines, same-tick
// inserts racing a live batch), and the receive-path coalescing order
// contract at the VORX kernel layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/inline_fn.hpp"
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

// A bare EventQueue drained with pop(): the event-at-a-time dispatch the
// Simulator's batched loop must reproduce, counters included.
class PopLoop {
 public:
  [[nodiscard]] SimTime now() const { return now_; }
  void post_at(SimTime at, sim::InlineFn&& fn) { q_.post(at, std::move(fn)); }
  // Simulator::run_until's contract, one pop() per event.
  void run_until(SimTime deadline) {
    while (!q_.empty() && q_.next_time() <= deadline) {
      auto [at, fn] = q_.pop();
      now_ = at;
      fn();
    }
    now_ = std::max(now_, deadline);
  }
  [[nodiscard]] const EventQueue::Stats& queue_stats() const {
    return q_.stats();
  }

 private:
  EventQueue q_;
  SimTime now_ = 0;
};

// Where a phase's follow-up events land.  kSparseLevel1 keeps one or two
// events in flight, each beyond the level-0 window, so level 0 runs empty
// and the head bucket sits in level 1; kLevel1Bursts packs several
// instants (same-instant repeats included) into each level-1 bucket.
enum class Phase { kMixed, kSparseLevel1, kLevel1Bursts };

// The event program of the dispatch-path differential.  Each event logs
// (id, time) and posts follow-ups drawn from an rng seeded by its id, so
// both engines post the same events as long as they fire in the same
// order.
struct Fired {
  std::uint64_t id;
  SimTime at;
  bool operator==(const Fired&) const = default;
};

template <class Engine>
class DispatchProgram {
 public:
  explicit DispatchProgram(Engine& engine) : e_(engine) {}

  void set_phase(Phase p) { phase_ = p; }
  // Stops posting follow-ups, so the queue can drain.
  void wind_down() { winding_down_ = true; }
  [[nodiscard]] const std::vector<Fired>& log() const { return log_; }
  [[nodiscard]] bool idle() const { return pending_.empty(); }
  // The k-th earliest pending time (the latest if fewer are pending),
  // from the program's own books: asking the queue would fast-forward it
  // and change what the next drain sees.
  [[nodiscard]] SimTime pending_at(std::size_t k) const {
    return *std::next(pending_.begin(),
                      static_cast<std::ptrdiff_t>(
                          std::min(k, pending_.size() - 1)));
  }

  void post_root(std::uint64_t salt) {
    sim::Rng r(salt);
    post(e_.now() + delay(r));
  }

 private:
  SimTime delay(sim::Rng& r) const {
    constexpr std::uint64_t kFarL1 = EventQueue::kWheelBuckets + kL1Tick;
    switch (phase_) {
      case Phase::kSparseLevel1:
        return static_cast<SimTime>(kFarL1 + r.below(EventQueue::kL1Span / 4));
      case Phase::kLevel1Bursts:
        return static_cast<SimTime>(2 * kFarL1 +
                                    r.below(EventQueue::kL1Span / 8));
      case Phase::kMixed:
        break;
    }
    switch (r.below(4)) {
      case 0: return 0;
      case 1: return static_cast<SimTime>(r.below(EventQueue::kL0Window));
      case 2:
        return kL0 + static_cast<SimTime>(r.below(EventQueue::kL1Span));
      default:
        return kL1Span + static_cast<SimTime>(r.below(EventQueue::kL1Span));
    }
  }

  void post(SimTime at) {
    const std::uint64_t id = next_id_++;
    pending_.insert(at);
    e_.post_at(at, [this, id, at] { fire(id, at); });
  }

  void fire(std::uint64_t id, SimTime at) {
    log_.push_back({id, at});
    pending_.erase(pending_.find(at));
    sim::Rng r(0x5EEDu ^ (id * 0x9E3779B97F4A7C15u));
    const std::size_t target = phase_ == Phase::kMixed         ? 200
                                : phase_ == Phase::kSparseLevel1 ? 2
                                                                 : 24;
    const std::uint64_t children = winding_down_              ? 0
                                   : pending_.size() < target ? 1 + r.below(3)
                                                              : r.below(2);
    if (phase_ == Phase::kLevel1Bursts) {
      // One base distance per parent, small jitter per child: several
      // instants share a level-1 bucket, some of them exactly.
      const SimTime base = at + delay(r);
      for (std::uint64_t c = 0; c < children; ++c) {
        post(base + static_cast<SimTime>(r.below(4) * r.below(kL1Tick / 4)));
      }
      return;
    }
    for (std::uint64_t c = 0; c < children; ++c) post(at + delay(r));
  }

  Engine& e_;
  Phase phase_ = Phase::kMixed;
  bool winding_down_ = false;
  std::vector<Fired> log_;
  std::multiset<SimTime> pending_;
  std::uint64_t next_id_ = 0;
};

// The same program under batched dispatch (Simulator) and under a bare
// pop() loop must fire in the same order and leave the same structure
// counters after every run_until window — insert routing included, not
// just order.  Phases alternate between mixed traffic and ones where
// level 0 runs empty and the head bucket sits in level 1, and deadlines
// fall before the head, inside the head's level-1 bucket or far beyond.
TEST(BatchedDispatch, MatchesPopLoopOrderAndQueueStats) {
  sim::Simulator batched;
  PopLoop popped;
  DispatchProgram<sim::Simulator> a(batched);
  DispatchProgram<PopLoop> b(popped);
  sim::Rng rng(0xD1FF5747u);
  const auto check = [&](int window) {
    ASSERT_EQ(batched.now(), popped.now()) << "window " << window;
    ASSERT_EQ(a.log().size(), b.log().size()) << "window " << window;
    ASSERT_TRUE(a.log() == b.log()) << "window " << window;
    const EventQueue::Stats& s = batched.queue_stats();
    const EventQueue::Stats& p = popped.queue_stats();
    ASSERT_EQ(s.l0_inserts, p.l0_inserts) << "window " << window;
    ASSERT_EQ(s.l1_inserts, p.l1_inserts) << "window " << window;
    ASSERT_EQ(s.heap_inserts, p.heap_inserts) << "window " << window;
    ASSERT_EQ(s.l1_promoted, p.l1_promoted) << "window " << window;
  };

  for (int w = 0; w < 600; ++w) {
    const Phase phase = static_cast<Phase>((w / 20) % 3);
    a.set_phase(phase);
    b.set_phase(phase);
    if (a.idle() || rng.below(4) == 0) {
      const std::uint64_t salt = rng.next();
      a.post_root(salt);
      b.post_root(salt);
    }
    const SimTime head = a.pending_at(0);
    SimTime deadline = 0;
    switch (rng.below(4)) {
      case 0:  // just before the head
        deadline = std::max(batched.now(), head - 1 -
                                               static_cast<SimTime>(
                                                   rng.below(64)));
        break;
      case 1:
        // Inside the level-1 bucket of the head or of one of the next few
        // events, which the window reaches with level 0 empty.
        deadline = a.pending_at(rng.below(4)) +
                   static_cast<SimTime>(rng.below(kL1Tick));
        break;
      case 2:  // a few level-1 buckets past the head
        deadline = head + static_cast<SimTime>(rng.below(8 * kL1Tick));
        break;
      default:
        deadline = batched.now() +
                   static_cast<SimTime>(rng.below(2 * EventQueue::kL1Span));
        break;
    }
    batched.run_until(deadline);
    popped.run_until(deadline);
    check(w);
    if (::testing::Test::HasFatalFailure()) return;
  }
  a.wind_down();
  b.wind_down();
  batched.run_until(std::numeric_limits<SimTime>::max());
  popped.run_until(std::numeric_limits<SimTime>::max());
  check(-1);
  EXPECT_EQ(batched.pending_events(), 0u);
  EXPECT_GT(a.log().size(), 10000u);
  EXPECT_GT(batched.queue_stats().drained_events, a.log().size() / 2);
  EXPECT_EQ(batched.queue_stats().l1_inserts,
            batched.queue_stats().l1_promoted);
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
  std::vector<std::pair<int, std::uint32_t>> got;
  sys.node(0).kernel().register_handler(vorx::msg::kRaw, [&got](hw::Frame f) {
    got.emplace_back(f.src, f.payload_bytes);
  });
  constexpr int kPerSource = 16;
  for (int i = 0; i < kPerSource; ++i) {
    for (const int src : {1, 2}) {
      hw::Frame f;
      f.kind = vorx::msg::kRaw;
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
