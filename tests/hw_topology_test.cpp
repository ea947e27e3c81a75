// Tests for the topology layer (DESIGN.md §15): fat-tree planning and
// delivery, always-on construction validation, adaptive routing, and the
// O(stations + clusters) routing-state guarantee at paper scale.
#include <gtest/gtest.h>

#include <ostream>
#include <set>
#include <stdexcept>
#include <vector>

#include "hw/fabric.hpp"
#include "hw/topology.hpp"
#include "sim/simulator.hpp"

namespace hpcvorx::hw {

// ctest names each AdaptiveDelivery case by this instead of the enum's raw
// bytes.  gtest finds it by argument-dependent lookup, so it lives in the
// enum's namespace.
void PrintTo(TopologyKind t, std::ostream* os) { *os << to_string(t); }

namespace {

Frame frame_to(StationId dst, std::uint32_t payload, std::uint64_t seq = 0) {
  Frame f;
  f.dst = dst;
  f.payload_bytes = payload;
  f.seq = seq;
  return f;
}

void drain_into(Fabric& fab, StationId station, std::vector<Frame>& out) {
  Endpoint& ep = fab.endpoint(station);
  ep.set_rx_cb([&fab, station, &out] {
    Endpoint& e = fab.endpoint(station);
    while (auto f = e.rx_take()) out.push_back(*std::move(f));
  });
}

TEST(FatTreeShape, PlansWidestTreeFromPortBudget) {
  // 12-port leaves with 4 stations each leave 8 uplink ports.
  const FatTreeShape s = FatTreeShape::plan(1024, 4, 12);
  EXPECT_EQ(s.leaves, 256);
  EXPECT_EQ(s.spines, 8);
  EXPECT_EQ(s.stations_per_leaf, 4);
  EXPECT_EQ(s.num_clusters(), 264);
  // Few leaves: the spine count caps at the leaf count.
  const FatTreeShape tiny = FatTreeShape::plan(8, 4, 12);
  EXPECT_EQ(tiny.leaves, 2);
  EXPECT_EQ(tiny.spines, 2);
}

TEST(FatTreeShape, NextHopsClimbThenDescend) {
  // 6-port leaves with 4 stations each leave 2 uplinks: two spines.
  const FatTreeShape s = FatTreeShape::plan(16, 4, 6);
  ASSERT_EQ(s.leaves, 4);
  ASSERT_EQ(s.spines, 2);
  // Leaf 0 -> leaf 3: uplink port spine_for(3) == 1, to spine cluster 4+1.
  EXPECT_EQ(s.next_port(0, 3), 1);
  EXPECT_EQ(s.next_cluster(0, 3), 5);
  // Spine 5 (index 1) -> leaf 3: down port 3.
  EXPECT_EQ(s.next_port(5, 3), 3);
  EXPECT_EQ(s.next_cluster(5, 3), 3);
}

TEST(FatTreeShape, PlanRejectsInfeasibleShapes) {
  // No uplink budget: 12 stations fill all 12 leaf ports.
  EXPECT_THROW(FatTreeShape::plan(24, 12, 12), std::invalid_argument);
  EXPECT_THROW(FatTreeShape::plan(0, 4, 12), std::invalid_argument);
  EXPECT_THROW(FatTreeShape::plan(16, 0, 12), std::invalid_argument);
}

TEST(Topology, FlagSpellingsRoundTrip) {
  EXPECT_EQ(parse_topology("cube"), TopologyKind::kHypercube);
  EXPECT_EQ(parse_topology("hypercube"), TopologyKind::kHypercube);
  EXPECT_EQ(parse_topology("fattree"), TopologyKind::kFatTree);
  EXPECT_EQ(parse_topology("fat-tree"), TopologyKind::kFatTree);
  EXPECT_EQ(parse_routing("ecube"), RoutingMode::kEcube);
  EXPECT_EQ(parse_routing("adaptive"), RoutingMode::kAdaptive);
  EXPECT_THROW((void)parse_topology("torus"), std::invalid_argument);
  EXPECT_THROW((void)parse_routing("valiant"), std::invalid_argument);
  EXPECT_EQ(to_string(TopologyKind::kFatTree), "fattree");
  EXPECT_EQ(to_string(RoutingMode::kAdaptive), "adaptive");
}

// Always-on construction validation (satellite: these used to be asserts,
// compiled out of Release builds).
TEST(Topology, HypercubeValidationThrowsActionableErrors) {
  sim::Simulator sim;
  // The headline case: 4096 nodes at 4/cluster needs 1024 clusters = a
  // 10-dim cube, and 10 + 4 > 12 default ports.
  try {
    auto fab = Fabric::hypercube(sim, 4096, 4);
    FAIL() << "4096 nodes on 12-port clusters must not build";
  } catch (const std::invalid_argument& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("port budget"), std::string::npos) << msg;
    EXPECT_NE(msg.find("ports_per_cluster"), std::string::npos) << msg;
  }
  EXPECT_THROW(Fabric::hypercube(sim, 0, 4), std::invalid_argument);
  EXPECT_THROW(Fabric::hypercube(sim, 64, 0), std::invalid_argument);
  EXPECT_THROW(Fabric::single_cluster(sim, 13), std::invalid_argument);
  EXPECT_THROW(Fabric::single_cluster(sim, 0), std::invalid_argument);
  // The documented remedy works: 16 ports fit 10 cube dims + 4 stations.
  FabricParams p;
  p.ports_per_cluster = 16;
  auto fab = Fabric::hypercube(sim, 4096, 4, p);
  EXPECT_EQ(fab->num_clusters(), 1024);
  EXPECT_EQ(fab->num_stations(), 4096);
}

TEST(Topology, FatTreeAllPairsDeliverWithExpectedHops) {
  sim::Simulator sim;
  FabricParams p;
  p.topo = TopologyKind::kFatTree;
  auto fab = Fabric::fat_tree(sim, 16, 4, p);
  ASSERT_EQ(fab->topology(), TopologyKind::kFatTree);
  ASSERT_EQ(fab->num_clusters(), 4 + 4);  // 4 leaves + min(8, 4) spines
  std::vector<std::vector<Frame>> got(16);
  for (int s = 0; s < 16; ++s) drain_into(*fab, s, got[static_cast<size_t>(s)]);
  for (int s = 0; s < 16; ++s) {
    for (int d = 0; d < 16; ++d) {
      if (s == d) continue;
      fab->endpoint(s).transmit(frame_to(d, 8));
      sim.run();
      ASSERT_FALSE(got[static_cast<size_t>(d)].empty())
          << s << "->" << d << " not delivered";
      const Frame& f = got[static_cast<size_t>(d)].back();
      EXPECT_EQ(f.src, s);
      // Same leaf: 1 cluster.  Across leaves: leaf + spine + leaf = 3.
      const int expect = fab->cluster_of(s) == fab->cluster_of(d) ? 1 : 3;
      EXPECT_EQ(f.hops, expect) << s << "->" << d;
      EXPECT_EQ(fab->route_length(s, d), expect);
    }
  }
}

class AdaptiveDelivery
    : public ::testing::TestWithParam<TopologyKind> {};

TEST_P(AdaptiveDelivery, AllPairsDeliverMinimally) {
  // Adaptive routing is minimal: every frame must arrive with exactly the
  // deterministic route's hop count no matter which candidate each hop
  // picked.
  sim::Simulator sim;
  FabricParams p;
  p.topo = GetParam();
  p.routing = RoutingMode::kAdaptive;
  auto fab = p.topo == TopologyKind::kFatTree ? Fabric::fat_tree(sim, 24, 4, p)
                                              : Fabric::hypercube(sim, 24, 4, p);
  ASSERT_EQ(fab->routing(), RoutingMode::kAdaptive);
  std::vector<std::vector<Frame>> got(24);
  for (int s = 0; s < 24; ++s) drain_into(*fab, s, got[static_cast<size_t>(s)]);
  for (int s = 0; s < 24; ++s) {
    Endpoint& ep = fab->endpoint(s);
    auto feed = std::make_shared<std::function<void()>>();
    auto next = std::make_shared<int>(0);
    // Keep-alive comes from the tx-ready callback's copy of `feed`.
    *feed = [&ep, s, next] {
      while (*next < 24 && ep.tx_ready()) {
        if (*next != s) ep.transmit(frame_to(*next, 8));
        ++*next;
      }
    };
    ep.set_tx_ready_cb([feed] { (*feed)(); });
    (*feed)();
  }
  sim.run();
  for (int d = 0; d < 24; ++d) {
    ASSERT_EQ(got[static_cast<size_t>(d)].size(), 23u) << "station " << d;
    for (const Frame& f : got[static_cast<size_t>(d)]) {
      EXPECT_EQ(f.hops, fab->route_length(f.src, d)) << f.src << "->" << d;
    }
  }
  EXPECT_EQ(fab->frames_dropped(), 0u);
}

INSTANTIATE_TEST_SUITE_P(BothTopologies, AdaptiveDelivery,
                         ::testing::Values(TopologyKind::kHypercube,
                                           TopologyKind::kFatTree));

TEST(Topology, RoutingStateStaysLinearAtPaperScale) {
  // The acceptance gate for the >1000-node machine: growing the cluster
  // count 4x must grow routing state ~4x (O(clusters)), not 16x — the old
  // per-cluster next-hop tables were O(clusters²).
  sim::Simulator sim;
  FabricParams big_p;
  big_p.ports_per_cluster = 16;
  auto small = Fabric::hypercube(sim, 1024, 4);          // 256 clusters
  auto big = Fabric::hypercube(sim, 4096, 4, big_p);     // 1024 clusters
  const double ratio = static_cast<double>(big->routing_state_bytes()) /
                       static_cast<double>(small->routing_state_bytes());
  EXPECT_LT(ratio, 8.0) << "routing state grew superlinearly: "
                        << small->routing_state_bytes() << " -> "
                        << big->routing_state_bytes();
  // Absolute sanity: 4096 stations' maps fit comfortably under 1 MiB
  // (the old 1024-cluster table alone would be 1024² ints = 4 MiB).
  EXPECT_LT(big->routing_state_bytes(), 1u << 20);
}

TEST(Topology, MakeBuildsTheRequestedShape) {
  sim::Simulator sim;
  FabricParams p;
  p.topo = TopologyKind::kFatTree;
  auto tree = Fabric::make(sim, 64, 4, p);
  EXPECT_EQ(tree->topology(), TopologyKind::kFatTree);
  auto cube = Fabric::make(sim, 64, 4);
  EXPECT_EQ(cube->topology(), TopologyKind::kHypercube);
  // Everything fits one cluster: topo is ignored, as documented.
  auto tiny = Fabric::make(sim, 8, 4, p);
  EXPECT_EQ(tiny->topology(), TopologyKind::kSingleCluster);
}

TEST(Topology, FatTreeHardwareMulticastDelivers) {
  // The multicast tree walks the topology interface, so group replication
  // must work unmodified on the contrast topology.
  sim::Simulator sim;
  FabricParams p;
  p.topo = TopologyKind::kFatTree;
  auto fab = Fabric::fat_tree(sim, 16, 4, p);
  const std::uint64_t gid = 9;
  const std::vector<StationId> members{1, 5, 10, 15};
  fab->add_multicast_group(gid, 1, members);
  std::vector<std::vector<Frame>> got(16);
  for (StationId m : members) drain_into(*fab, m, got[static_cast<size_t>(m)]);
  Frame f;
  f.group = gid;
  f.dst = -1;
  f.payload_bytes = 32;
  fab->endpoint(1).transmit(std::move(f));
  sim.run();
  EXPECT_TRUE(got[1].empty());  // root's local delivery is the kernel's job
  for (StationId m : {5, 10, 15}) {
    ASSERT_EQ(got[static_cast<size_t>(m)].size(), 1u) << "member " << m;
    EXPECT_EQ(got[static_cast<size_t>(m)][0].group, gid);
  }
}

}  // namespace
}  // namespace hpcvorx::hw
