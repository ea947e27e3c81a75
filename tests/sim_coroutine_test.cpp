// Tests for the coroutine process model and synchronization primitives.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/awaitables.hpp"
#include "sim/promise.hpp"
#include "sim/task.hpp"

namespace hpcvorx::sim {
namespace {

Proc sleeper(Simulator& sim, Duration d, std::vector<SimTime>& log) {
  co_await delay(sim, d);
  log.push_back(sim.now());
}

TEST(Coroutine, DelaySuspendsForVirtualTime) {
  Simulator sim;
  std::vector<SimTime> log;
  sleeper(sim, usec(5), log);
  sleeper(sim, usec(1), log);
  sleeper(sim, usec(3), log);
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{usec(1), usec(3), usec(5)}));
}

Proc yielding_counter(Simulator& sim, int id, std::vector<int>& log) {
  for (int i = 0; i < 3; ++i) {
    log.push_back(id);
    co_await yield(sim);
  }
}

TEST(Coroutine, YieldInterleavesFairly) {
  Simulator sim;
  std::vector<int> log;
  yielding_counter(sim, 1, log);
  yielding_counter(sim, 2, log);
  sim.run();
  // Both run eagerly to their first yield, then alternate via the queue.
  EXPECT_EQ(log, (std::vector<int>{1, 2, 1, 2, 1, 2}));
  EXPECT_EQ(sim.now(), 0);  // yields consume no virtual time
}

Proc event_waiter(Event& ev, Simulator& sim, std::vector<SimTime>& log) {
  co_await ev.wait();
  log.push_back(sim.now());
}

TEST(Event, WaitersWakeOnSet) {
  Simulator sim;
  Event ev(sim);
  std::vector<SimTime> log;
  event_waiter(ev, sim, log);
  event_waiter(ev, sim, log);
  sim.post_at(usec(10), [&] { ev.set(); });
  sim.run();
  EXPECT_EQ(log, (std::vector<SimTime>{usec(10), usec(10)}));
}

TEST(Event, WaitAfterSetCompletesImmediately) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  std::vector<SimTime> log;
  event_waiter(ev, sim, log);
  sim.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log[0], 0);
}

TEST(Event, ResetRearms) {
  Simulator sim;
  Event ev(sim);
  ev.set();
  ev.reset();
  EXPECT_FALSE(ev.is_set());
  std::vector<SimTime> log;
  event_waiter(ev, sim, log);
  sim.run();
  EXPECT_TRUE(log.empty());
  ev.set();
  sim.run();
  EXPECT_EQ(log.size(), 1u);
}

Proc acquirer(Semaphore& s, int id, std::vector<int>& order) {
  co_await s.acquire();
  order.push_back(id);
}

TEST(Semaphore, FifoHandoff) {
  Simulator sim;
  Semaphore s(sim, 0);
  std::vector<int> order;
  acquirer(s, 1, order);
  acquirer(s, 2, order);
  acquirer(s, 3, order);
  EXPECT_EQ(s.waiting(), 3u);
  s.release(2);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  s.release();
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Semaphore, TryAcquireRespectsQueuedWaiters) {
  Simulator sim;
  Semaphore s(sim, 1);
  EXPECT_TRUE(s.try_acquire());
  EXPECT_FALSE(s.try_acquire());
  std::vector<int> order;
  acquirer(s, 1, order);
  s.release();
  // Permit is earmarked for the queued waiter; try_acquire must not steal.
  EXPECT_FALSE(s.try_acquire());
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1}));
}

TEST(Semaphore, AvailableCountsPermits) {
  Simulator sim;
  Semaphore s(sim, 3);
  EXPECT_EQ(s.available(), 3);
  ASSERT_TRUE(s.try_acquire());
  EXPECT_EQ(s.available(), 2);
  s.release(5);
  EXPECT_EQ(s.available(), 7);
}

Proc gate_arriver(Simulator& sim, Gate& g, Duration after) {
  co_await delay(sim, after);
  g.arrive();
}

Proc gate_waiter(Gate& g, Simulator& sim, SimTime& opened_at) {
  co_await g.wait();
  opened_at = sim.now();
}

TEST(Gate, OpensAfterAllArrivals) {
  Simulator sim;
  Gate g(sim, 3);
  SimTime opened_at = -1;
  gate_waiter(g, sim, opened_at);
  gate_arriver(sim, g, usec(1));
  gate_arriver(sim, g, usec(9));
  gate_arriver(sim, g, usec(4));
  sim.run();
  EXPECT_EQ(opened_at, usec(9));
}

TEST(Gate, ZeroTargetIsOpenImmediately) {
  Simulator sim;
  Gate g(sim, 0);
  SimTime opened_at = -1;
  gate_waiter(g, sim, opened_at);
  sim.run();
  EXPECT_EQ(opened_at, 0);
}

Proc mb_producer(Simulator& sim, Mailbox<int>& mb, int count, Duration gap) {
  for (int i = 0; i < count; ++i) {
    mb.push(i);
    co_await delay(sim, gap);
  }
}

Proc mb_consumer(Mailbox<int>& mb, int count, std::vector<int>& got) {
  for (int i = 0; i < count; ++i) {
    got.push_back(co_await mb.recv());
  }
}

TEST(Mailbox, DeliversInFifoOrder) {
  Simulator sim;
  Mailbox<int> mb(sim);
  std::vector<int> got;
  mb_producer(sim, mb, 50, usec(1));
  mb_consumer(mb, 50, got);
  sim.run();
  ASSERT_EQ(got.size(), 50u);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(got[static_cast<size_t>(i)], i);
}

TEST(Mailbox, ConsumerBeforeProducerWorks) {
  Simulator sim;
  Mailbox<int> mb(sim);
  std::vector<int> got;
  mb_consumer(mb, 3, got);
  mb_producer(sim, mb, 3, 0);
  sim.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
}

TEST(Mailbox, TryRecvOnEmptyIsNullopt) {
  Simulator sim;
  Mailbox<int> mb(sim);
  EXPECT_FALSE(mb.try_recv().has_value());
}

Proc promise_fulfiller(Simulator& sim, Promise<std::string> p, Duration after) {
  co_await delay(sim, after);
  p.set_value("hello");
}

Proc future_awaiter(Future<std::string> f, Simulator& sim,
                    std::vector<std::pair<SimTime, std::string>>& log) {
  const std::string& v = co_await f;
  log.emplace_back(sim.now(), v);
}

TEST(Future, MultipleWaitersGetTheValue) {
  Simulator sim;
  Promise<std::string> p(sim);
  std::vector<std::pair<SimTime, std::string>> log;
  future_awaiter(p.future(), sim, log);
  future_awaiter(p.future(), sim, log);
  promise_fulfiller(sim, p, usec(3));
  sim.run();
  ASSERT_EQ(log.size(), 2u);
  for (const auto& [t, v] : log) {
    EXPECT_EQ(t, usec(3));
    EXPECT_EQ(v, "hello");
  }
}

// A ParkedPump owner: the pump drains `queue`, taking 1 us per item, and
// parks when it is empty.
struct PumpOwner {
  explicit PumpOwner(Simulator& s) : sim(s) {}
  Proc pump() {
    ++starts;
    for (;;) {
      co_await park.park(!queue.empty());
      while (!queue.empty()) {
        co_await delay(sim, usec(1));
        done.push_back(queue.front());
        queue.erase(queue.begin());
      }
    }
  }
  bool kick() { return park.kick([this] { pump(); }); }

  Simulator& sim;
  ParkedPump park;
  std::vector<int> queue;
  std::vector<int> done;
  int starts = 0;
};

TEST(ParkedPump, FirstKickStartsThePumpInline) {
  Simulator sim;
  PumpOwner o(sim);
  o.queue.push_back(1);
  EXPECT_TRUE(o.kick());
  EXPECT_EQ(o.starts, 1);
  sim.run();
  EXPECT_EQ(o.done, (std::vector<int>{1}));
  EXPECT_EQ(sim.now(), usec(1));  // the item was taken up at time 0
}

TEST(ParkedPump, ParksWhenThereIsNoWorkAndAKickResumesItInline) {
  Simulator sim;
  PumpOwner o(sim);
  EXPECT_TRUE(o.kick());  // starts with nothing queued, so it parks
  EXPECT_EQ(o.starts, 1);
  sim.run();
  EXPECT_EQ(sim.now(), 0);
  o.queue.push_back(2);
  EXPECT_TRUE(o.kick());  // resumed, not started again
  EXPECT_EQ(o.starts, 1);
  EXPECT_EQ(sim.pending_events(), 1u);  // its 1 us drain step is already posted
  sim.run();
  EXPECT_EQ(o.done, (std::vector<int>{2}));
}

TEST(ParkedPump, KickWhileAwakeResumesNothing) {
  Simulator sim;
  PumpOwner o(sim);
  EXPECT_TRUE(o.kick());  // parks
  o.queue.push_back(1);
  EXPECT_TRUE(o.kick());
  // Mid-burst: the pump waits on its 1 us step, so a kick only stages.
  o.queue.push_back(2);
  EXPECT_FALSE(o.kick());
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(o.done, (std::vector<int>{1, 2}));  // one burst, in order
  EXPECT_EQ(sim.now(), usec(2));
  EXPECT_TRUE(o.kick());  // parked again after the burst
  EXPECT_EQ(o.starts, 1);
}

TEST(Future, AwaitAfterFulfilmentIsImmediate) {
  Simulator sim;
  Promise<int> p(sim);
  p.set_value(7);
  EXPECT_TRUE(p.future().ready());
  EXPECT_EQ(p.future().get(), 7);
}

}  // namespace
}  // namespace hpcvorx::sim
