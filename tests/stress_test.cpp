// Randomized stress and property tests across the whole stack.  Each case
// drives a random workload from a seeded generator and checks global
// invariants (exactly-once delivery, per-pair FIFO order, payload
// integrity, accounting conservation, determinism).
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>

#include "sim/random.hpp"
#include "vorx/node.hpp"
#include "vorx/system.hpp"
#include "vorx_test_util.hpp"

namespace hpcvorx::vorx {
namespace {

// ---------------------------------------------------------------------------
// Fabric-level property: random raw traffic on random topologies.
// ---------------------------------------------------------------------------

struct FabricSweepParam {
  int stations;
  int per_cluster;
  std::uint64_t seed;
};

// ctest names each case by this; without it, by the struct's raw bytes,
// padding included.
void PrintTo(const FabricSweepParam& p, std::ostream* os) {
  *os << 's' << p.stations << "_c" << p.per_cluster << "_seed" << p.seed;
}

class FabricTrafficSweep : public ::testing::TestWithParam<FabricSweepParam> {};

TEST_P(FabricTrafficSweep, ExactlyOnceInOrderDelivery) {
  const auto [stations, per_cluster, seed] = GetParam();
  sim::Simulator sim;
  auto fab = hw::Fabric::make(sim, stations, per_cluster);
  sim::Rng rng(seed);

  // Receivers drain immediately (the kernel invariant) and log (src, seq).
  std::vector<std::vector<std::pair<int, std::uint64_t>>> got(
      static_cast<std::size_t>(stations));
  for (int s = 0; s < stations; ++s) {
    hw::Endpoint& ep = fab->endpoint(s);
    ep.set_rx_cb([&fab, s, &got] {
      hw::Endpoint& e = fab->endpoint(s);
      while (auto f = e.rx_take()) {
        got[static_cast<std::size_t>(s)].emplace_back(f->src, f->seq);
      }
    });
  }

  // Senders blast random-size frames at random destinations, per-pair
  // sequence numbers.
  std::map<std::pair<int, int>, std::uint64_t> next_seq;
  struct Sender {
    std::vector<hw::Frame> queue;
    std::size_t next = 0;
  };
  auto senders = std::make_shared<std::vector<Sender>>(
      static_cast<std::size_t>(stations));
  int total = 0;
  for (int s = 0; s < stations; ++s) {
    const int burst = 10 + static_cast<int>(rng.below(30));
    for (int i = 0; i < burst; ++i) {
      int dst = static_cast<int>(rng.below(static_cast<std::uint64_t>(stations)));
      if (dst == s) dst = (dst + 1) % stations;
      hw::Frame f;
      f.dst = dst;
      f.payload_bytes = 4 + static_cast<std::uint32_t>(rng.below(1000));
      f.seq = next_seq[{s, dst}]++;
      (*senders)[static_cast<std::size_t>(s)].queue.push_back(std::move(f));
      ++total;
    }
  }
  for (int s = 0; s < stations; ++s) {
    hw::Endpoint& ep = fab->endpoint(s);
    auto feed = std::make_shared<std::function<void()>>();
    *feed = [&ep, senders, s] {
      Sender& me = (*senders)[static_cast<std::size_t>(s)];
      while (me.next < me.queue.size() && ep.tx_ready()) {
        ep.transmit(me.queue[me.next++]);
      }
    };
    ep.set_tx_ready_cb([feed] { (*feed)(); });
    (*feed)();
  }
  sim.run();

  // Exactly once, and FIFO per (src, dst) pair.
  int delivered = 0;
  for (int d = 0; d < stations; ++d) {
    std::map<int, std::uint64_t> expected;  // src -> next expected seq
    for (const auto& [src, seq] : got[static_cast<std::size_t>(d)]) {
      ASSERT_EQ(seq, expected[src]++) << "src " << src << " -> dst " << d;
      ++delivered;
    }
  }
  EXPECT_EQ(delivered, total);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, FabricTrafficSweep,
    ::testing::Values(FabricSweepParam{6, 12, 1}, FabricSweepParam{12, 2, 2},
                      FabricSweepParam{13, 3, 3}, FabricSweepParam{24, 4, 4},
                      FabricSweepParam{40, 4, 5}, FabricSweepParam{70, 4, 6},
                      FabricSweepParam{30, 2, 7}));

// ---------------------------------------------------------------------------
// CPU accounting conservation under random preemptive load.
// ---------------------------------------------------------------------------

class CpuStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CpuStress, LedgerConservesTimeAndWork) {
  sim::Simulator sim;
  sim::Cpu cpu(sim, "stress");
  cpu.ledger().enable_recording(true);
  sim::Rng rng(GetParam());
  sim::Duration expected_work = 0;
  int completed = 0;
  int jobs = 0;
  for (int i = 0; i < 60; ++i) {
    const auto start = static_cast<sim::Duration>(rng.below(sim::msec(2)));
    const auto cost = static_cast<sim::Duration>(rng.below(sim::usec(400)) + 1);
    const int prio = static_cast<int>(rng.below(9));
    const auto owner = static_cast<std::int64_t>(rng.below(5));
    expected_work += cost;
    ++jobs;
    [](sim::Simulator& s, sim::Cpu& c, sim::Duration at, int pr,
       sim::Duration d, std::int64_t ow, int* done) -> sim::Proc {
      co_await sim::delay(s, at);
      co_await c.run(pr, d, sim::Category::kUser, ow, sim::usec(80));
      ++*done;
    }(sim, cpu, start, prio, cost, owner, &completed);
  }
  sim.run();
  cpu.finalize_accounting();
  EXPECT_EQ(completed, jobs);
  // Work conservation: user time equals the sum of job costs exactly.
  EXPECT_EQ(cpu.ledger().total(sim::Category::kUser), expected_work);
  // Time conservation: the ledger covers [0, now] with no gaps/overlaps.
  EXPECT_EQ(cpu.ledger().grand_total(), sim.now());
  const auto& iv = cpu.ledger().intervals();
  for (std::size_t i = 1; i < iv.size(); ++i) {
    ASSERT_EQ(iv[i].start, iv[i - 1].end);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CpuStress, ::testing::Range<std::uint64_t>(1, 9));

// ---------------------------------------------------------------------------
// Channel fuzz: many channels, random sizes and contents, checksums.
// ---------------------------------------------------------------------------

class ChannelFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ChannelFuzz, RandomTrafficKeepsIntegrityAndOrder) {
  sim::Simulator sim;
  SystemConfig cfg;
  cfg.nodes = 6;
  System sys(sim, cfg);
  sim::Rng rng(GetParam());

  struct Plan {
    int a, b;
    std::vector<std::uint32_t> sizes;
    std::vector<std::uint64_t> seeds;
  };
  std::vector<Plan> plans;
  for (int c = 0; c < 8; ++c) {
    Plan p;
    p.a = static_cast<int>(rng.below(6));
    p.b = static_cast<int>(rng.below(6));
    if (p.b == p.a) p.b = (p.b + 1) % 6;
    const int n = 5 + static_cast<int>(rng.below(20));
    for (int i = 0; i < n; ++i) {
      p.sizes.push_back(1 + static_cast<std::uint32_t>(rng.below(1024)));
      p.seeds.push_back(rng.next());
    }
    plans.push_back(std::move(p));
  }

  std::vector<std::vector<std::uint64_t>> received(plans.size());
  for (std::size_t c = 0; c < plans.size(); ++c) {
    const Plan& p = plans[c];
    const std::string name = "fuzz" + std::to_string(c);
    sys.node(p.a).spawn_process(
        "w" + std::to_string(c), [&, c, name](Subprocess& sp) -> sim::Task<void> {
          Channel* ch = co_await sp.open(name);
          const Plan& plan = plans[c];
          for (std::size_t i = 0; i < plan.sizes.size(); ++i) {
            co_await sp.write(*ch, plan.sizes[i],
                              hw::make_payload(testutil::pattern_bytes(
                                  plan.sizes[i], plan.seeds[i])));
          }
        });
    sys.node(p.b).spawn_process(
        "r" + std::to_string(c), [&, c, name](Subprocess& sp) -> sim::Task<void> {
          Channel* ch = co_await sp.open(name);
          const Plan& plan = plans[c];
          for (std::size_t i = 0; i < plan.sizes.size(); ++i) {
            ChannelMsg m = co_await sp.read(*ch);
            received[c].push_back(testutil::fnv1a(*m.data));
          }
        });
  }
  sim.run();
  for (std::size_t c = 0; c < plans.size(); ++c) {
    const Plan& p = plans[c];
    ASSERT_EQ(received[c].size(), p.sizes.size()) << "channel " << c;
    for (std::size_t i = 0; i < p.sizes.size(); ++i) {
      EXPECT_EQ(received[c][i],
                testutil::fnv1a(testutil::pattern_bytes(p.sizes[i], p.seeds[i])))
          << "channel " << c << " msg " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChannelFuzz,
                         ::testing::Range<std::uint64_t>(10, 18));

// ---------------------------------------------------------------------------
// Determinism: identical configuration => bit-identical virtual end time.
// ---------------------------------------------------------------------------

TEST(Determinism, RepeatedRunsAreBitIdentical) {
  auto run_once = [] {
    sim::Simulator sim;
    SystemConfig cfg;
    cfg.nodes = 8;
    System sys(sim, cfg);
    for (int i = 0; i < 8; ++i) {
      const std::string name = "d" + std::to_string(i % 4);
      sys.node(i).spawn_process(
          "p" + std::to_string(i), [name, i](Subprocess& sp) -> sim::Task<void> {
            Channel* ch = co_await sp.open(name);
            for (int k = 0; k < 10; ++k) {
              if (i < 4) {
                co_await sp.write(*ch, 64 + static_cast<std::uint32_t>(k));
              } else {
                (void)co_await sp.read(*ch);
              }
              co_await sp.compute(sim::usec(37));
            }
          });
    }
    sim.run();
    return sim.now();
  };
  const sim::SimTime a = run_once();
  const sim::SimTime b = run_once();
  EXPECT_EQ(a, b);
  EXPECT_GT(a, 0);
}

// Event queue against a reference model under random posts and stamped
// no-op events (the Cpu slice-end pattern: a bumped stamp turns the fire
// into a no-op).
TEST(Determinism, EventQueueMatchesReferenceModel) {
  sim::Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    sim::EventQueue q;
    std::multimap<std::pair<sim::SimTime, int>, int> model;  // (time, order)
    std::vector<std::uint64_t> stamp(100, 0);
    std::vector<int> fired;
    int id = 0;
    for (int i = 0; i < 100; ++i) {
      const auto t = static_cast<sim::SimTime>(rng.below(50));
      const int my_id = id++;
      const auto slot = static_cast<std::size_t>(my_id);
      q.post(t, [&fired, &stamp, my_id, slot, gen = stamp[slot]] {
        if (stamp[slot] == gen) fired.push_back(my_id);
      });
      model.emplace(std::pair{t, my_id}, my_id);
    }
    // Stamp a random third stale (a victim drawn twice stays stale).
    for (int i = 0; i < 33; ++i) {
      const auto victim = static_cast<std::size_t>(rng.below(100));
      if (stamp[victim]++ == 0) {
        for (auto it = model.begin(); it != model.end(); ++it) {
          if (it->second == static_cast<int>(victim)) {
            model.erase(it);
            break;
          }
        }
      }
    }
    while (!q.empty()) q.pop().second();
    std::vector<int> want;
    for (const auto& [k, v] : model) want.push_back(v);
    ASSERT_EQ(fired, want) << "round " << round;
  }
}

}  // namespace
}  // namespace hpcvorx::vorx
