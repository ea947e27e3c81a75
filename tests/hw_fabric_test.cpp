// Integration tests for Fabric topologies: construction, delivery, routing.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "hw/fabric.hpp"
#include "hw/traffic.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace hpcvorx::hw {
namespace {

Frame frame_to(StationId dst, std::uint32_t payload, std::uint64_t seq = 0) {
  Frame f;
  f.dst = dst;
  f.payload_bytes = payload;
  f.seq = seq;
  return f;
}

// `n` frames of `payload` bytes to `dst`, all due at once, seq 0..n-1.
std::vector<Send> flood(StationId dst, int n, std::uint32_t payload) {
  std::vector<Send> sends;
  for (int i = 0; i < n; ++i) {
    sends.push_back({0, frame_to(dst, payload, static_cast<std::uint64_t>(i))});
  }
  return sends;
}

TEST(Fabric, SingleClusterDeliversWithPayloadIntact) {
  sim::Simulator sim;
  auto fab = Fabric::single_cluster(sim, 4);
  // FabricTraffic records no payload; this test reads the whole frame.
  std::vector<Frame> got;
  fab->endpoint(2).set_rx_cb([&fab, &got] {
    while (auto f = fab->endpoint(2).rx_take()) got.push_back(*std::move(f));
  });

  std::vector<std::byte> bytes;
  for (int i = 0; i < 64; ++i) bytes.push_back(static_cast<std::byte>(i));
  Frame f = frame_to(2, 64);
  f.data = make_payload(bytes);
  f.kind = 7;
  f.obj = 42;
  fab->endpoint(0).transmit(std::move(f));
  sim.run();

  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].src, 0);
  EXPECT_EQ(got[0].dst, 2);
  EXPECT_EQ(got[0].kind, 7u);
  EXPECT_EQ(got[0].obj, 42u);
  ASSERT_NE(got[0].data, nullptr);
  EXPECT_EQ(*got[0].data, bytes);
  EXPECT_EQ(got[0].hops, 1);  // one cluster traversal
}

TEST(Fabric, SingleClusterAllPairsDeliver) {
  sim::Simulator sim;
  auto fab = Fabric::single_cluster(sim, 8);
  const FabricTraffic traffic(*fab, {});
  for (int s = 0; s < 8; ++s) {
    for (int d = 0; d < 8; ++d) {
      if (s == d) continue;
      fab->endpoint(s).transmit(frame_to(d, 16, static_cast<std::uint64_t>(s)));
      sim.run();
    }
  }
  for (int d = 0; d < 8; ++d) {
    EXPECT_EQ(traffic.received(d).size(), 7u) << "station " << d;
  }
}

TEST(Fabric, HypercubeConstruction70Nodes) {
  sim::Simulator sim;
  auto fab = Fabric::hypercube(sim, 70, 4);
  EXPECT_EQ(fab->num_stations(), 70);
  EXPECT_EQ(fab->num_clusters(), 18);  // ceil(70/4)
  EXPECT_EQ(fab->cluster_of(0), 0);
  EXPECT_EQ(fab->cluster_of(69), 17);
}

TEST(Fabric, PaperScaleSystem1024Nodes256Clusters) {
  // §1: "A hypercube-based system with 1024 nodes can be built with 256
  // clusters by using 8 of the 12 ports on each cluster for connections to
  // other clusters and the other four for connections to processing nodes."
  sim::Simulator sim;
  auto fab = Fabric::hypercube(sim, 1024, 4);
  EXPECT_EQ(fab->num_clusters(), 256);
  EXPECT_EQ(dimension_of(fab->num_clusters()), 8);
  // Longest route: entry cluster + 8 cube hops.
  int max_len = 0;
  for (int s : {0, 1023}) {
    for (int d : {0, 511, 1023}) {
      if (s != d) max_len = std::max(max_len, fab->route_length(s, d));
    }
  }
  EXPECT_EQ(max_len, 1 + 8);
}

TEST(Fabric, HypercubeAllPairsDeliverWithExpectedHops) {
  sim::Simulator sim;
  auto fab = Fabric::hypercube(sim, 12, 2);  // 6 clusters, dim 3
  ASSERT_EQ(fab->num_clusters(), 6);
  const FabricTraffic traffic(*fab, {});
  for (int s = 0; s < 12; ++s) {
    for (int d = 0; d < 12; ++d) {
      if (s == d) continue;
      fab->endpoint(s).transmit(frame_to(d, 8));
      sim.run();
      ASSERT_FALSE(traffic.received(d).empty())
          << s << "->" << d << " not delivered";
      const Delivery& f = traffic.received(d).back();
      EXPECT_EQ(f.src, s);
      EXPECT_EQ(f.hops, fab->route_length(s, d)) << s << "->" << d;
    }
  }
}

TEST(Fabric, MakeSelectsTopologyBySize) {
  sim::Simulator sim;
  auto small = Fabric::make(sim, 10);
  EXPECT_EQ(small->num_clusters(), 1);
  auto large = Fabric::make(sim, 70, 4);
  EXPECT_EQ(large->num_clusters(), 18);
}

TEST(Fabric, ManyToOneIsLosslessUnderHardwareFlowControl) {
  // §2: with the HPC, "loss of messages due to buffer overflow [is]
  // impossible".  Ten stations blast frames at station 0 with no software
  // flow control; every frame must arrive exactly once.
  sim::Simulator sim;
  auto fab = Fabric::single_cluster(sim, 11);
  constexpr int kPerSender = 20;
  Schedule sends(11);
  for (int s = 1; s <= 10; ++s) sends[s] = flood(0, kPerSender, 1024);
  FabricTraffic traffic(*fab, std::move(sends));
  traffic.start();
  sim.run();
  ASSERT_EQ(traffic.received(0).size(), 200u);
  std::map<int, int> per_src;
  for (const Delivery& d : traffic.received(0)) ++per_src[d.src];
  for (int s = 1; s <= 10; ++s) EXPECT_EQ(per_src[s], kPerSender);
}

TEST(Fabric, FairArbitrationInterleavesCompetingSenders) {
  // The round-robin output arbiter must not starve any sender: in a long
  // many-to-one run, deliveries from each sender should be spread out, not
  // batched (check: among any 8 consecutive deliveries, >= 3 distinct
  // sources once the pipeline warms up).
  sim::Simulator sim;
  auto fab = Fabric::single_cluster(sim, 5);
  Schedule sends(5);
  for (int s = 1; s <= 4; ++s) sends[s] = flood(0, 40, 256);
  FabricTraffic traffic(*fab, std::move(sends));
  traffic.start();
  sim.run();
  const std::vector<Delivery>& got = traffic.received(0);
  ASSERT_EQ(got.size(), 160u);
  for (std::size_t i = 16; i + 8 <= got.size(); ++i) {
    std::set<int> distinct;
    for (std::size_t j = i; j < i + 8; ++j) distinct.insert(got[j].src);
    EXPECT_GE(distinct.size(), 3u) << "window at " << i;
  }
}

// ---------------------------------------------------------------------------
// FabricTraffic's own contract (traffic.hpp).
// ---------------------------------------------------------------------------

// Stations 1-8 of a 24-station cube each send 30 frames, 0-39 µs apart,
// to receivers 0 and 13: more than those two links carry, so sends wait on
// flow control, and a tx-ready interrupt often fires before the next send
// is due.  `seq` numbers each (src, dst) pair's frames from 0.
Schedule contended_schedule() {
  sim::Rng rng(11);
  Schedule sends(24);
  std::map<std::pair<int, int>, std::uint64_t> next_seq;
  for (int s = 1; s <= 8; ++s) {
    sim::SimTime t = 0;
    for (int i = 0; i < 30; ++i) {
      t += sim::usec(static_cast<double>(rng.below(40)));
      const int dst = rng.below(2) == 0 ? 0 : 13;
      sends[s].push_back({t, frame_to(dst, 512, next_seq[{s, dst}]++)});
    }
  }
  return sends;
}

TEST(FabricTraffic, NoFrameIsInjectedBeforeItsTime) {
  sim::Simulator sim;
  auto fab = Fabric::hypercube(sim, 24, 4);
  const Schedule plan = contended_schedule();
  std::map<std::pair<int, int>, std::vector<sim::SimTime>> due;  // by seq
  for (int s = 1; s <= 8; ++s) {
    for (const Send& send : plan[s]) due[{s, send.frame.dst}].push_back(send.at);
  }
  FabricTraffic traffic(*fab, plan);
  traffic.start();
  sim.run();
  ASSERT_EQ(traffic.delivered(), 8u * 30u);
  int waited = 0;
  for (const int d : {0, 13}) {
    for (const Delivery& got : traffic.received(d)) {
      const sim::SimTime at = due[{got.src, d}].at(got.seq);
      EXPECT_GE(got.injected_at, at) << got.src << "->" << d;
      waited += got.injected_at > at;
    }
  }
  EXPECT_GT(waited, 0) << "no send waited on flow control";
}

TEST(FabricTraffic, DeliversExactlyOnceInPerPairOrderUnderContention) {
  sim::Simulator sim;
  auto fab = Fabric::hypercube(sim, 24, 4);
  FabricTraffic traffic(*fab, contended_schedule());
  traffic.start();
  sim.run();
  EXPECT_EQ(traffic.sent(), 8u * 30u);
  EXPECT_EQ(traffic.delivered(), 8u * 30u);
  for (const int d : {0, 13}) {
    std::map<int, std::uint64_t> expected;  // src -> next expected seq
    for (const Delivery& got : traffic.received(d)) {
      EXPECT_EQ(got.seq, expected[got.src]++) << got.src << "->" << d;
    }
  }
}

TEST(FabricTraffic, EveryEarlyPumpCallPostsItsOwnEvent) {
  // The first frame goes out at start(), which parks the second on one
  // event at 100 µs; the first frame's tx-ready interrupt finds the second
  // still early and posts another.  No deduplication: both stay queued.
  sim::Simulator sim;
  auto fab = Fabric::single_cluster(sim, 2);
  Schedule sends(2);
  sends[0] = {{0, frame_to(1, 64)}, {sim::usec(100), frame_to(1, 64, 1)}};
  FabricTraffic traffic(*fab, std::move(sends));
  traffic.start();
  sim.run_until(sim::usec(99));
  ASSERT_EQ(traffic.received(1).size(), 1u);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(traffic.delivered(), 2u);
}

TEST(FabricTraffic, EmptyScheduleStationPostsNothing) {
  sim::Simulator sim;
  auto fab = Fabric::single_cluster(sim, 4);
  Schedule sends(4);
  sends[2].push_back({sim::usec(100), frame_to(1, 64)});
  FabricTraffic traffic(*fab, std::move(sends));
  traffic.start();
  // Station 2's early send is the one event; 0, 1 and 3 post nothing.
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  ASSERT_EQ(traffic.received(1).size(), 1u);
  EXPECT_EQ(traffic.received(1)[0].injected_at, sim::usec(100));
}

}  // namespace
}  // namespace hpcvorx::hw
