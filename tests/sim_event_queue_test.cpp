// Unit tests for the event queue and simulator core.
#include <gtest/gtest.h>

#include <span>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hpcvorx::sim {
namespace {

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.post(30, [&] { order.push_back(3); });
  q.post(10, [&] { order.push_back(1); });
  q.post(20, [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SameTimeFiresInInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.post(100, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator sim;
  std::vector<SimTime> seen;
  sim.post_at(100, [&] { seen.push_back(sim.now()); });
  sim.post_at(50, [&] { seen.push_back(sim.now()); });
  sim.run();
  EXPECT_EQ(seen, (std::vector<SimTime>{50, 100}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, ScheduleAfterIsRelative) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.post_at(100, [&] {
    sim.post_after(25, [&] { fired_at = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired_at, 125);
}

TEST(Simulator, PastTimesClampToNow) {
  Simulator sim;
  SimTime fired_at = -1;
  sim.post_at(100, [&] {
    sim.post_at(10, [&] { fired_at = sim.now(); });  // in the "past"
  });
  sim.run();
  EXPECT_EQ(fired_at, 100);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int fired = 0;
  sim.post_at(10, [&] { ++fired; });
  sim.post_at(100, [&] { ++fired; });
  sim.run_until(50);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), 50);
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, StopHaltsRun) {
  Simulator sim;
  int fired = 0;
  sim.post_at(10, [&] {
    ++fired;
    sim.stop();
  });
  sim.post_at(20, [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  sim.run();  // resumes with the remaining event
  EXPECT_EQ(fired, 2);
}

TEST(Time, UnitHelpers) {
  EXPECT_EQ(usec(1), 1000);
  EXPECT_EQ(msec(1), 1'000'000);
  EXPECT_EQ(sec(1), 1'000'000'000);
  EXPECT_EQ(usec(0.5), 500);
  EXPECT_DOUBLE_EQ(to_usec(usec(303)), 303.0);
}

TEST(Time, FormatDuration) {
  EXPECT_EQ(format_duration(usec(303)), "303.0us");
  EXPECT_EQ(format_duration(sec(2)), "2.000s");
  EXPECT_EQ(format_duration(500), "500ns");
  EXPECT_EQ(format_duration(msec(12)), "12.000ms");
}

TEST(Time, NearestRankOfOneSampleIsThatSample) {
  // The sample's neighbours in memory make an off-by-one read return a
  // wrong value instead of reading out of bounds.
  const Duration storage[] = {1, 7, 9};
  const std::span<const Duration> one(storage + 1, 1);
  for (const int pct : {0, 1, 50, 99, 100}) {
    EXPECT_EQ(nearest_rank(one, pct), 7) << "p" << pct;
  }
}

TEST(Time, NearestRankMedianIsTheLowerMiddleAtEvenCount) {
  EXPECT_EQ(nearest_rank(std::vector<Duration>{10, 20, 30, 40}, 50), 20);
  EXPECT_EQ(nearest_rank(std::vector<Duration>{10, 20, 30}, 50), 20);
}

TEST(Time, NearestRankTakesRankNpOver100WhenItIsWhole) {
  // 200 samples 1..200: p99 is rank 198 exactly, where the index
  // n*99/100 would read the 199th sample.
  std::vector<Duration> v(200);
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<Duration>(i + 1);
  }
  EXPECT_EQ(nearest_rank(v, 99), 198);
  EXPECT_EQ(nearest_rank(v, 100), 200);
  // Otherwise it rounds the rank up: ceil(10 * 0.99) = 10.
  v.resize(10);
  EXPECT_EQ(nearest_rank(v, 99), 10);
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next() == b.next());
  EXPECT_LT(same, 2);
}

TEST(Rng, RangeStaysInBounds) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const auto v = r.range(-3, 9);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(5);
  Rng child = a.split();
  // The child stream must not be a shifted copy of the parent stream.
  Rng b(5);
  b.next();  // align with post-split parent state
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child.next() == b.next());
  EXPECT_LT(same, 2);
}

}  // namespace
}  // namespace hpcvorx::sim
