// Tests for ticketed posts (Simulator::reserve / post_at(at, ticket, fn)):
// a stream that keeps only its head event queued, posted on the ticket
// the item reserved when it was fed, must fire every item exactly where an
// eager post made at reservation time would have fired.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hpcvorx {
namespace {

using sim::EventQueue;
using sim::SimTime;

constexpr SimTime kL0 = static_cast<SimTime>(EventQueue::kL0Window);
constexpr SimTime kL1Tick = static_cast<SimTime>(EventQueue::kL1Tick);
constexpr SimTime kL1Span = static_cast<SimTime>(EventQueue::kL1Span);

// One simulator driving a random event program.  Every event has an id
// (minted in creation order) and logs (now, id) when it fires.  Stream
// events are either posted eagerly when created, or — in lazy mode — only
// reserve a ticket then, and the stream keeps just its head queued.  The
// two modes consume the same sequence numbers in the same order, so they
// must produce the same log.
class Program {
 public:
  // Streams 0..kArrival-1 are fed at setup with out-of-order times (and
  // sorted before the first post); the kGc streams are appended at run
  // time with monotone deadlines, one fixed delay each, spanning the
  // level-0 window, level 1 and the spill.
  static constexpr int kArrival = 3;
  static constexpr SimTime kGcDelay[] = {0, 700, kL0 + 3 * kL1Tick + 5,
                                         kL1Span + 11};
  static constexpr int kGc = sizeof(kGcDelay) / sizeof(kGcDelay[0]);

  Program(bool lazy, std::uint64_t seed) : lazy_(lazy), rng_(seed) {}

  void setup(int items) {
    std::vector<SimTime> used{0};
    for (int i = 0; i < items; ++i) {
      const SimTime at = pick_time(0, used);
      used.push_back(at);
      if (rng_.below(3) == 0) {
        plain(at);  // a same-time rival posted between stream items
      } else {
        feed(static_cast<int>(rng_.below(kArrival)), at);
      }
    }
    if (!lazy_) return;
    for (int s = 0; s < kArrival; ++s) {
      std::deque<Item>& q = streams_[s];
      std::sort(q.begin(), q.end(), [](const Item& a, const Item& b) {
        return a.at != b.at ? a.at < b.at : a.ticket.seq < b.ticket.seq;
      });
      if (!q.empty()) post_head(s);
    }
  }

  sim::Simulator& sim() { return sim_; }
  const std::vector<std::pair<SimTime, std::uint64_t>>& log() const {
    return log_;
  }

 private:
  struct Item {
    SimTime at;
    sim::EventTicket ticket;
    std::uint64_t id;
  };

  // A time straddling every queue boundary relative to `from`, or an exact
  // repeat of an earlier time (a same-tick collision).
  SimTime pick_time(SimTime from, const std::vector<SimTime>& used) {
    switch (rng_.below(6)) {
      case 0:
        return from + static_cast<SimTime>(rng_.below(EventQueue::kL0Window));
      case 1:
        return from + kL0 +
               static_cast<SimTime>(
                   rng_.below(EventQueue::kL1Span - EventQueue::kL0Window));
      case 2:
        return from + kL1Span +
               static_cast<SimTime>(rng_.below(2 * EventQueue::kL1Span));
      case 3: {
        const SimTime edges[] = {from + kL0 - 1, from + kL0,
                                 (from / kL1Tick + 4) * kL1Tick,
                                 from + kL1Span - 1, from + kL1Span};
        return edges[rng_.below(sizeof(edges) / sizeof(edges[0]))];
      }
      default:
        return std::max(from, used[rng_.below(used.size())]);
    }
  }

  void plain(SimTime at) {
    const std::uint64_t id = next_id_++;
    sim_.post_at(at, [this, id] { fire(id); });
  }

  void feed(int s, SimTime at) {
    const std::uint64_t id = next_id_++;
    if (!lazy_) {
      sim_.post_at(at, [this, id] { fire(id); });
      return;
    }
    streams_[s].push_back(Item{at, sim_.reserve(), id});
    // Run-time appends (monotone GC streams) post when they become head;
    // setup feeds post after the sort.
    if (s >= kArrival && streams_[s].size() == 1) post_head(s);
  }

  void post_head(int s) {
    const Item& h = streams_[s].front();
    sim_.post_at(h.at, h.ticket, [this, s] {
      const Item it = streams_[s].front();
      streams_[s].pop_front();
      if (!streams_[s].empty()) post_head(s);
      fire(it.id);
    });
  }

  // Logs the fire, then grows the program: plain posts (including
  // zero-delay same-tick ones that race a live batch) and GC appends.
  void fire(std::uint64_t id) {
    log_.emplace_back(sim_.now(), id);
    if (next_id_ >= kMaxEvents) return;
    const SimTime now = sim_.now();
    const int children = static_cast<int>(rng_.below(3));
    for (int c = 0; c < children; ++c) {
      if (rng_.below(2) == 0) {
        const int g = static_cast<int>(rng_.below(kGc));
        feed(kArrival + g, now + kGcDelay[g]);
      } else if (rng_.below(4) == 0) {
        plain(now);
      } else {
        plain(pick_time(now, recent_));
      }
    }
    recent_.push_back(now);
    if (recent_.size() > 16) recent_.erase(recent_.begin());
  }

  static constexpr std::uint64_t kMaxEvents = 12000;

  bool lazy_;
  sim::Rng rng_;
  sim::Simulator sim_;
  std::deque<Item> streams_[kArrival + kGc];
  std::vector<std::pair<SimTime, std::uint64_t>> log_;
  std::vector<SimTime> recent_{0};
  std::uint64_t next_id_ = 0;
};

// The randomized differential: the same program, eager on one queue and
// through one-pending-per-stream tickets on the other, driven through
// step(), run_until() windows (including deadlines inside level-1 buckets)
// and run().  The fire logs must agree entry for entry, and both queues
// must end empty.
TEST(EventTicket, LazyStreamsMatchEagerPostsAcrossBoundaries) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 0x7E1C3E75u}) {
    Program eager(false, seed);
    Program lazy(true, seed);
    eager.setup(400);
    lazy.setup(400);
    ASSERT_GT(eager.sim().pending_events(), lazy.sim().pending_events());

    for (int i = 0; i < 500; ++i) {
      const bool a = eager.sim().step();
      const bool b = lazy.sim().step();
      ASSERT_EQ(a, b);
    }
    ASSERT_EQ(eager.log(), lazy.log()) << "seed " << seed << " after step()";

    sim::Rng windows(seed);
    for (int w = 0; w < 40; ++w) {
      const SimTime deadline =
          eager.sim().now() +
          static_cast<SimTime>(windows.below(2 * EventQueue::kL1Span));
      eager.sim().run_until(deadline);
      lazy.sim().run_until(deadline);
      ASSERT_EQ(eager.sim().now(), lazy.sim().now());
      ASSERT_EQ(eager.log(), lazy.log())
          << "seed " << seed << " window " << w;
    }

    eager.sim().run();
    lazy.sim().run();
    EXPECT_EQ(eager.log(), lazy.log()) << "seed " << seed << " after run()";
    EXPECT_GT(eager.log().size(), 5000u);
    EXPECT_EQ(eager.sim().events_executed(), lazy.sim().events_executed());
    EXPECT_EQ(lazy.sim().pending_events(), 0u);
  }
}

// A ticketed event posted while its instant's batch is live, at that
// instant and with a sequence number older than the rest of the batch,
// fires right after the event that posted it — before the later-seq batch
// entries — whether the batch's instant was in the level-0 window when
// posted or sat in level 1 until the drain promoted it.
TEST(EventTicket, OlderSeqTicketPostedDuringBatchFiresBeforeLaterBatchEntries) {
  for (const SimTime at : {SimTime{100}, kL0 + 5 * kL1Tick + 7}) {
    sim::Simulator sim;
    std::vector<int> fired;
    sim::EventTicket ticket;
    sim.post_at(at, [&sim, &fired, &ticket, at] {
      fired.push_back(0);
      sim.post_at(at, ticket, [&fired] { fired.push_back(1); });
    });
    ticket = sim.reserve();
    for (int i = 2; i <= 4; ++i) {
      sim.post_at(at, [&fired, i] { fired.push_back(i); });
    }
    sim.run();
    EXPECT_EQ(fired, (std::vector<int>{0, 1, 2, 3, 4})) << "at " << at;
    EXPECT_EQ(sim.queue_stats().heap_inserts, 1u);
    EXPECT_EQ(sim.queue_stats().drained_events, 4u);
  }
}

// A ticketed post lands in the spill heap wherever its time falls, and an
// event at the same instant posted eagerly later still fires after it.
TEST(EventTicket, TicketedPostsSpillAndKeepTheirSlot) {
  sim::Simulator sim;
  std::vector<int> fired;
  const sim::EventTicket early = sim.reserve();
  sim.post_at(50, [&fired] { fired.push_back(2); });
  sim.post_at(50, early, [&fired] { fired.push_back(1); });
  sim.post_at(10, [&fired] { fired.push_back(0); });
  sim.run();
  EXPECT_EQ(fired, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(sim.queue_stats().heap_inserts, 1u);
  EXPECT_EQ(sim.queue_stats().l0_inserts, 2u);
}

// A block reserved at once hands out the tickets the same number of
// one-by-one reservations would have: a stream that only counts its items
// first spends them later in generation order, ties included.
TEST(EventTicket, ReservedBlockMatchesOneByOneReservations) {
  auto fire_order = [](bool block) {
    sim::Simulator sim;
    std::vector<int> fired;
    sim.post_at(20, [&fired] { fired.push_back(-1); });
    std::vector<sim::EventTicket> tickets;
    if (block) {
      const sim::EventTicket first = sim.reserve(4);
      for (std::uint64_t i = 0; i < 4; ++i) {
        tickets.push_back(sim::EventTicket{first.seq + i});
      }
    } else {
      for (int i = 0; i < 4; ++i) tickets.push_back(sim.reserve());
    }
    sim.post_at(20, [&fired] { fired.push_back(-2); });
    for (int i = 3; i >= 0; --i) {
      sim.post_at(i % 2 == 0 ? 20 : 10, tickets[static_cast<std::size_t>(i)],
                  [&fired, i] { fired.push_back(i); });
    }
    sim.run();
    return fired;
  };
  EXPECT_EQ(fire_order(true), fire_order(false));
  EXPECT_EQ(fire_order(true), (std::vector<int>{1, 3, -1, 0, 2, -2}));
}

}  // namespace
}  // namespace hpcvorx
