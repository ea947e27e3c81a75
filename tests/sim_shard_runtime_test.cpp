// Unit tests for the conservative-lookahead shard runtime
// (sim/shard_runtime) and its round barrier.
//
// The system-level differential tests (shard_differential_test.cpp) check
// that a sharded machine delivers the same messages as the sequential one;
// these tests pin the runtime mechanics themselves: the barrier's ordering
// guarantee, window computation, the lookahead safety bound at its exact
// edge, exchange drain order, stop propagation, deadline semantics,
// configuration errors, and the 1-shard delegation path.
#include "sim/shard_runtime.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"
#include "sim/time.hpp"

namespace hpcvorx::sim {
namespace {

// ---------------------------------------------------------------------------
// ShardBarrier: every slot written before a phase is visible to every
// party after it.  The slots are plain ints, so a missing happens-before
// edge is also a data race for TSan to report.  Slots alternate between two
// buffers by phase parity: a party cannot write the buffer of phase p + 2
// before every party has arrived at phase p + 1, i.e. finished checking p.
// Every 64th phase one party arrives late, so the others run out of spins
// and yields and park: the park/notify path runs in every test, not only
// when the host happens to be slow.
// ---------------------------------------------------------------------------

int mismatches_after_phases(int parties, int phases) {
  ShardBarrier barrier(parties);
  const auto n = static_cast<std::size_t>(parties);
  std::vector<int> slots[2] = {std::vector<int>(n, -1), std::vector<int>(n, -1)};
  std::vector<int> bad(n, 0);
  const auto party = [&](int me) {
    for (int p = 0; p < phases; ++p) {
      std::vector<int>& buf = slots[p % 2];
      buf[static_cast<std::size_t>(me)] = p;
      if (p % 64 == 0 && (p / 64) % parties == me) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      barrier.arrive_and_wait();
      for (const int v : buf) bad[static_cast<std::size_t>(me)] += v != p;
    }
  };
  std::vector<std::thread> threads;
  for (int t = 1; t < parties; ++t) threads.emplace_back(party, t);
  party(0);
  for (std::thread& t : threads) t.join();
  int total = 0;
  for (const int b : bad) total += b;
  return total;
}

constexpr int kBarrierPhases = 10000;

TEST(ShardBarrier, TwoPartiesSeeEverySlotEveryPhase) {
  EXPECT_EQ(mismatches_after_phases(2, kBarrierPhases), 0);
}

TEST(ShardBarrier, FourPartiesSeeEverySlotEveryPhase) {
  EXPECT_EQ(mismatches_after_phases(4, kBarrierPhases), 0);
}

TEST(ShardBarrier, OversubscribedPartiesSeeEverySlotEveryPhase) {
  // Twice as many parties as hardware threads: the barrier skips its spin
  // phase and waiters must still be woken every phase.
  const int parties =
      2 * std::max(2, static_cast<int>(std::thread::hardware_concurrency()));
  EXPECT_EQ(mismatches_after_phases(parties, kBarrierPhases), 0);
}

// ---------------------------------------------------------------------------
// ShardRuntime, with a toy exchange standing in for a split hw::Link half:
// a producer shard pushes (arrival_time, tag) pairs into the exchange
// during its window; the drain schedules a log append on the destination
// shard.
// ---------------------------------------------------------------------------

struct ToyExchange final : ShardExchange {
  std::vector<std::pair<SimTime, int>> q;
  std::string* log = nullptr;  // appended on the destination shard

  void drain_into(Simulator& dst) override {
    for (const std::pair<SimTime, int>& e : q) {
      EXPECT_GT(e.first, dst.now()) << "lookahead violation in drain";
      std::string* out = log;
      const int tag = e.second;
      dst.post_at(e.first, [out, tag, at = e.first] {
        *out += 't' + std::to_string(tag) + '@' + std::to_string(at) + ';';
      });
    }
    q.clear();
  }
};

TEST(ShardRuntime, SingleShardDelegatesToPlainRun) {
  // The 1-shard runtime must behave exactly like Simulator::run(): same
  // event order, no rounds, no barriers.
  std::string got, want;
  {
    Simulator s;
    for (int i = 0; i < 4; ++i)
      s.post_at(i * 10, [&want, i] { want += std::to_string(i); });
    s.run();
  }
  {
    ShardRuntime rt(1);
    for (int i = 0; i < 4; ++i)
      rt.shard(0).post_at(i * 10, [&got, i] { got += std::to_string(i); });
    rt.run();
    EXPECT_EQ(rt.rounds(), 0u);
  }
  EXPECT_EQ(got, want);
  EXPECT_EQ(got, "0123");
}

TEST(ShardRuntime, CrossShardPingPong) {
  ShardRuntime rt(2);
  constexpr Duration kLat = 10;
  rt.note_cross_shard_latency(kLat);
  std::string log01, log10;
  ToyExchange to1, to0;
  to1.log = &log01;
  to0.log = &log10;
  rt.register_exchange(1, &to1);
  rt.register_exchange(0, &to0);

  // Shard 0 sends a message every 25 ticks; shard 1 echoes each arrival
  // back.  Every hop crosses the shard boundary with latency kLat.
  for (int i = 0; i < 4; ++i) {
    rt.shard(0).post_at(i * 25, [&to1, i, at = SimTime(i * 25)] {
      to1.q.push_back({at + kLat, i});
    });
  }
  ToyExchange* echo_back = &to0;
  Simulator* s1 = &rt.shard(1);
  rt.shard(1).post_at(0, [] {});  // give shard 1 a first event
  // Wrap to1's drain target: after each arrival fires on shard 1, echo.
  // (The ToyExchange already logs; schedule echoes alongside.)
  for (int i = 0; i < 4; ++i) {
    rt.shard(1).post_at(i * 25 + kLat, [echo_back, s1, i] {
      echo_back->q.push_back({s1->now() + kLat, 100 + i});
    });
  }
  rt.run();

  EXPECT_EQ(log01, "t0@10;t1@35;t2@60;t3@85;");
  EXPECT_EQ(log10, "t100@20;t101@45;t102@70;t103@95;");
  EXPECT_GT(rt.rounds(), 0u);
  EXPECT_GT(rt.total_events_executed(), 0u);
}

TEST(ShardRuntime, MinLatencyArrivalAtWindowEdge) {
  // The sharpest case the safety argument allows: with lookahead L, an
  // event executing at the very end of a window (LBTS + L - 1) emits an
  // arrival at LBTS + 2L - 1 — strictly beyond the window, so the drain at
  // the next barrier still schedules it in the destination's future.
  ShardRuntime rt(2);
  constexpr Duration kLat = 10;
  rt.note_cross_shard_latency(kLat);
  std::string log;
  ToyExchange ex;
  ex.log = &log;
  rt.register_exchange(1, &ex);

  // First window is [0, 9] (LBTS 0).  An event at t=9 — the window's last
  // tick — sends with the minimum latency: arrival at 19.
  rt.shard(0).post_at(9, [&ex] { ex.q.push_back({9 + kLat, 1}); });
  rt.shard(1).post_at(0, [] {});
  rt.run();
  EXPECT_EQ(log, "t1@19;");
}

TEST(ShardRuntime, ZeroLatencyEventsStayIntraShard) {
  // Zero-delay event chains are fine *within* a shard while the
  // cross-shard lookahead stays positive: the window bound only governs
  // what crosses the boundary.
  ShardRuntime rt(2);
  rt.note_cross_shard_latency(5);
  std::string log;
  ToyExchange ex;
  ex.log = &log;
  rt.register_exchange(1, &ex);

  Simulator* s0 = &rt.shard(0);
  rt.shard(0).post_at(3, [s0, &log, &ex] {
    log += "a;";
    s0->post_after(0, [s0, &log, &ex] {  // same-instant chain, same shard
      log += "b;";
      ex.q.push_back({s0->now() + 5, 9});
    });
  });
  rt.shard(1).post_at(0, [] {});
  rt.run();
  EXPECT_EQ(log, "a;b;t9@8;");
}

TEST(ShardRuntime, DrainOrderFollowsRegistration) {
  // Two exchanges feeding the same destination shard with events at the
  // same timestamp: the merge order is the registration order, per the
  // determinism contract — not the push order across channels.
  for (int trial = 0; trial < 2; ++trial) {
    ShardRuntime rt(2);
    rt.note_cross_shard_latency(10);
    std::string log;
    ToyExchange first, second;
    first.log = &log;
    second.log = &log;
    rt.register_exchange(1, &first);
    rt.register_exchange(1, &second);
    // Push into `second` before `first`; drain must still run `first` first.
    rt.shard(0).post_at(0, [&first, &second] {
      second.q.push_back({10, 2});
      first.q.push_back({10, 1});
    });
    rt.shard(1).post_at(0, [] {});
    rt.run();
    EXPECT_EQ(log, "t1@10;t2@10;");
  }
}

TEST(ShardRuntime, RunUntilAdvancesAllClocksToDeadline) {
  ShardRuntime rt(2);
  rt.note_cross_shard_latency(10);
  std::string log;
  ToyExchange ex;
  ex.log = &log;
  rt.register_exchange(1, &ex);
  int late = 0;
  rt.shard(0).post_at(50, [&late] { ++late; });
  rt.shard(1).post_at(70, [&late] { ++late; });
  rt.run_until(40);
  EXPECT_EQ(late, 0);
  EXPECT_EQ(rt.shard(0).now(), 40);
  EXPECT_EQ(rt.shard(1).now(), 40);
  // Resume: the leftover events run on the next call.
  rt.run_until(100);
  EXPECT_EQ(late, 2);
  EXPECT_EQ(rt.shard(0).now(), 100);
  EXPECT_EQ(rt.shard(1).now(), 100);
}

TEST(ShardRuntime, StopOnOneShardStopsTheRun) {
  ShardRuntime rt(2);
  rt.note_cross_shard_latency(10);
  std::string log;
  ToyExchange ex;
  ex.log = &log;
  rt.register_exchange(1, &ex);
  Simulator* s0 = &rt.shard(0);
  bool far_ran = false;
  rt.shard(0).post_at(5, [s0] { s0->stop(); });
  rt.shard(0).post_at(100000, [&far_ran] { far_ran = true; });
  rt.shard(1).post_at(100000, [&far_ran] { far_ran = true; });
  rt.run();
  EXPECT_FALSE(far_ran);
  EXPECT_TRUE(rt.shard(0).stop_requested());
}

TEST(ShardRuntime, StopInAnyRoundStopsEveryShardOfFour) {
  // Each shard decides termination from the stop bits every shard
  // published for the round, never from a flag another shard may already
  // be setting in its next window — shards that disagreed would leave the
  // rest parked at the barrier forever.  Raise the stop in many different
  // rounds, from each shard in turn, with every shard busy in every window
  // and a ring of cross-shard traffic; each run must end, and no shard may
  // run past the window the stop fell in.
  constexpr Duration kLat = 10;
  constexpr SimTime kHorizon = 2000;
  for (int trial = 0; trial < 120; ++trial) {
    ShardRuntime rt(4);
    rt.note_cross_shard_latency(kLat);
    std::vector<std::string> logs(4);
    std::vector<std::unique_ptr<ToyExchange>> exs;
    for (int s = 0; s < 4; ++s) {
      exs.push_back(std::make_unique<ToyExchange>());
      exs.back()->log = &logs[static_cast<std::size_t>((s + 1) % 4)];
      rt.register_exchange((s + 1) % 4, exs.back().get());
    }
    for (int s = 0; s < 4; ++s) {
      ToyExchange* out = exs[static_cast<std::size_t>(s)].get();
      Simulator* sim = &rt.shard(s);
      for (SimTime t = s; t < kHorizon; t += 3) {
        rt.shard(s).post_at(t, [out, sim, t] {
          if (t % 9 == 0) out->q.push_back({sim->now() + kLat, 0});
        });
      }
    }
    const int stopper = trial % 4;
    const SimTime stop_at = 5 + trial * 13;
    Simulator* victim = &rt.shard(stopper);
    rt.shard(stopper).post_at(stop_at, [victim] { victim->stop(); });
    rt.run();
    EXPECT_TRUE(rt.shard(stopper).stop_requested()) << "trial " << trial;
    for (int s = 0; s < 4; ++s) {
      EXPECT_LT(rt.shard(s).now(), stop_at + kLat)
          << "shard " << s << " ran past the stopping window, trial " << trial;
    }
  }
}

TEST(ShardRuntime, RoundProfileCoversEveryShard) {
  ShardRuntime rt(2);
  rt.note_cross_shard_latency(10);
  for (int i = 0; i < 50; ++i) rt.shard(0).post_at(i * 7, [] {});
  for (int i = 0; i < 50; ++i) rt.shard(1).post_at(i * 5, [] {});
  rt.run();
  ASSERT_EQ(rt.round_profile().size(), 2u);
  for (const ShardRuntime::ShardTimes& t : rt.round_profile()) {
    EXPECT_GT(t.run_ns + t.drain_ns + t.wait_ns, 0u);
  }
}

TEST(ShardRuntime, RejectsZeroShards) {
  EXPECT_THROW({ ShardRuntime rt(0); }, std::invalid_argument);
}

TEST(ShardRuntime, RejectsZeroLatencyCrossShardLink) {
  ShardRuntime rt(2);
  EXPECT_THROW(rt.note_cross_shard_latency(0), std::invalid_argument);
}

TEST(ShardRuntime, RejectsMultiShardRunWithoutCrossShardLink) {
  // Without a lookahead the first window would end before it began and the
  // run would never advance.
  ShardRuntime rt(2);
  rt.shard(0).post_at(1, [] {});
  EXPECT_THROW(rt.run(), std::invalid_argument);
  EXPECT_THROW(rt.run_until(100), std::invalid_argument);
}

TEST(ShardRuntime, DeterministicAcrossRepeatedRuns) {
  // The merged cross-shard event order must not depend on thread timing.
  // Hammer a 4-shard ring with staggered traffic and require the combined
  // log to be identical across repetitions.
  auto run_once = [] {
    ShardRuntime rt(4);
    constexpr Duration kLat = 7;
    rt.note_cross_shard_latency(kLat);
    std::vector<std::string> logs(4);
    std::vector<std::unique_ptr<ToyExchange>> exs;
    for (int s = 0; s < 4; ++s) {
      exs.push_back(std::make_unique<ToyExchange>());
      exs.back()->log = &logs[static_cast<std::size_t>((s + 1) % 4)];
      rt.register_exchange((s + 1) % 4, exs.back().get());
    }
    for (int s = 0; s < 4; ++s) {
      ToyExchange* out = exs[static_cast<std::size_t>(s)].get();
      Simulator* sim = &rt.shard(s);
      for (int i = 0; i < 50; ++i) {
        rt.shard(s).post_at(s * 3 + i * 11, [out, sim, s, i] {
          out->q.push_back({sim->now() + kLat, s * 1000 + i});
        });
      }
    }
    rt.run();
    std::string all;
    for (auto& l : logs) {
      all += l;
      all += '\n';
    }
    return all;
  };
  const std::string first = run_once();
  for (int i = 0; i < 3; ++i) EXPECT_EQ(run_once(), first);
}

TEST(ShardRuntime, TotalEventsSumAcrossShards) {
  ShardRuntime rt(2);
  rt.note_cross_shard_latency(10);
  for (int i = 0; i < 3; ++i) rt.shard(0).post_at(i, [] {});
  for (int i = 0; i < 5; ++i) rt.shard(1).post_at(i, [] {});
  rt.run();
  EXPECT_EQ(rt.total_events_executed(), 8u);
}

}  // namespace
}  // namespace hpcvorx::sim
