// Tests for hardware multicast: in-switch replication along programmed
// spanning trees (§4.2's "we designed the HPC hardware to be able to
// implement multicast efficiently").
#include <gtest/gtest.h>

#include <ostream>

#include "vorx/multicast.hpp"
#include "vorx_test_util.hpp"

namespace hpcvorx::vorx {
namespace {

// Fabric-level property: group frames reach every member except the root
// exactly once, across topologies and group shapes.
struct HwMcastParam {
  int stations;
  int per_cluster;
  int members;
  std::uint64_t seed;
};

// ctest names each case by this; without it, by the struct's raw bytes,
// padding included.
void PrintTo(const HwMcastParam& p, std::ostream* os) {
  *os << 's' << p.stations << "_c" << p.per_cluster << "_m" << p.members
      << "_seed" << p.seed;
}

class HwMulticastSweep : public ::testing::TestWithParam<HwMcastParam> {};

TEST_P(HwMulticastSweep, ExactlyOnceToEveryMember) {
  const auto [stations, per_cluster, nmembers, seed] = GetParam();
  sim::Simulator sim;
  auto fab = hw::Fabric::make(sim, stations, per_cluster);
  sim::Rng rng(seed);

  // Random member set including a random root.
  std::vector<hw::StationId> members;
  while (static_cast<int>(members.size()) < nmembers) {
    const auto s = static_cast<hw::StationId>(rng.below(
        static_cast<std::uint64_t>(stations)));
    if (std::find(members.begin(), members.end(), s) == members.end()) {
      members.push_back(s);
    }
  }
  const hw::StationId root = members[0];
  fab->add_multicast_group(77, root, members);

  std::vector<int> received(static_cast<std::size_t>(stations), 0);
  for (int s = 0; s < stations; ++s) {
    fab->endpoint(s).set_rx_cb([&fab, s, &received] {
      while (auto f = fab->endpoint(s).rx_take()) {
        ++received[static_cast<std::size_t>(s)];
      }
    });
  }

  for (int burst = 0; burst < 5; ++burst) {
    hw::Frame f;
    f.group = 77;
    f.dst = -1;
    f.payload_bytes = 100 + static_cast<std::uint32_t>(rng.below(900));
    fab->endpoint(root).transmit(std::move(f));
    sim.run();
  }

  for (int s = 0; s < stations; ++s) {
    const bool is_member =
        std::find(members.begin(), members.end(), s) != members.end();
    const int want = (is_member && s != root) ? 5 : 0;
    EXPECT_EQ(received[static_cast<std::size_t>(s)], want) << "station " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HwMulticastSweep,
    ::testing::Values(HwMcastParam{8, 12, 5, 1}, HwMcastParam{16, 2, 8, 2},
                      HwMcastParam{24, 4, 12, 3}, HwMcastParam{40, 4, 20, 4},
                      HwMcastParam{70, 4, 30, 5}, HwMcastParam{70, 4, 70, 6}));

TEST(HwMulticast, OsLayerDeliversIdenticalContentInBothModes) {
  for (const McastMode mode :
       {McastMode::kSoftwareTree, McastMode::kHardware}) {
    sim::Simulator sim;
    SystemConfig cfg;
    cfg.nodes = 13;  // spans multiple clusters
    cfg.stations_per_cluster = 4;
    System sys(sim, cfg);
    std::vector<int> idx;
    for (int i = 0; i < 13; ++i) idx.push_back(i);
    auto handles = sys.create_multicast_group(88, idx, /*root=*/2, mode);

    std::vector<std::uint64_t> sums(13, 0);
    sys.node(2).spawn_process("root", [&](Subprocess& sp) -> sim::Task<void> {
      for (std::uint64_t m = 0; m < 4; ++m) {
        co_await handles[2]->write(
            sp, 700, hw::make_payload(testutil::pattern_bytes(700, m)));
      }
    });
    for (int i = 0; i < 13; ++i) {
      sys.node(i).spawn_process(
          "m" + std::to_string(i), [&, i](Subprocess& sp) -> sim::Task<void> {
            std::uint64_t acc = 0;
            for (int m = 0; m < 4; ++m) {
              ChannelMsg msg =
                  co_await handles[static_cast<std::size_t>(i)]->read(sp);
              acc ^= testutil::fnv1a(*msg.data) + static_cast<std::uint64_t>(m);
            }
            sums[static_cast<std::size_t>(i)] = acc;
          });
    }
    sim.run();
    for (int i = 1; i < 13; ++i) {
      EXPECT_EQ(sums[static_cast<std::size_t>(i)], sums[0])
          << "member " << i << " mode " << static_cast<int>(mode);
    }
    EXPECT_NE(sums[0], 0u);
  }
}

TEST(HwMulticast, HardwareModeSkipsKernelForwardingWork) {
  auto run = [](McastMode mode) {
    sim::Simulator sim;
    SystemConfig cfg;
    cfg.nodes = 12;
    cfg.stations_per_cluster = 4;
    System sys(sim, cfg);
    std::vector<int> idx;
    for (int i = 0; i < 12; ++i) idx.push_back(i);
    auto handles = sys.create_multicast_group(99, idx, 0, mode);
    sys.node(0).spawn_process("root", [&](Subprocess& sp) -> sim::Task<void> {
      for (int m = 0; m < 10; ++m) co_await handles[0]->write(sp, 1024);
    });
    for (int i = 0; i < 12; ++i) {
      sys.node(i).spawn_process(
          "m" + std::to_string(i), [&, i](Subprocess& sp) -> sim::Task<void> {
            for (int m = 0; m < 10; ++m) {
              (void)co_await handles[static_cast<std::size_t>(i)]->read(sp);
            }
          });
    }
    sim.run();
    std::uint64_t forwarded = 0;
    for (int i = 0; i < 12; ++i) {
      forwarded += sys.node(i).mcast().frames_forwarded();
    }
    return std::pair{sim.now(), forwarded};
  };
  const auto [sw_time, sw_forwarded] = run(McastMode::kSoftwareTree);
  const auto [hw_time, hw_forwarded] = run(McastMode::kHardware);
  EXPECT_GT(sw_forwarded, 0u);
  EXPECT_EQ(hw_forwarded, 0u);  // the switches did the copying
  EXPECT_LT(hw_time, sw_time);  // and the distribution finishes sooner
}

// The per-group observability counters (this PR's tentpole): software
// copies vs in-switch copies, fan-out depth, and per-member delivery
// latency, recorded into the handles and sampled into the counter
// timeline in both modes.
TEST(HwMulticast, PerGroupCountersContrastSoftwareAndHardware) {
  struct Outcome {
    std::uint64_t sw_copies = 0;       // sum over members
    std::uint64_t switch_copies = 0;   // sum over clusters
    std::uint64_t deliveries = 0;      // sum over members
    sim::Duration worst_delivery = 0;  // max over members
    int fanout_depth = 0;
    bool sampled_delivery = false;     // mcast.g99 delivery_us.* samples
    bool sampled_switch = false;       // cluster mcast_copies.g99 samples
  };
  auto run = [](McastMode mode) {
    sim::Simulator sim;
    SystemConfig cfg;
    cfg.nodes = 12;
    cfg.stations_per_cluster = 4;
    cfg.record_counters = true;
    System sys(sim, cfg);
    std::vector<int> idx;
    for (int i = 0; i < 12; ++i) idx.push_back(i);
    auto handles = sys.create_multicast_group(99, idx, 0, mode);
    sys.node(0).spawn_process("root", [&](Subprocess& sp) -> sim::Task<void> {
      for (int m = 0; m < 10; ++m) co_await handles[0]->write(sp, 1024);
    });
    for (int i = 0; i < 12; ++i) {
      sys.node(i).spawn_process(
          "m" + std::to_string(i), [&, i](Subprocess& sp) -> sim::Task<void> {
            for (int m = 0; m < 10; ++m) {
              (void)co_await handles[static_cast<std::size_t>(i)]->read(sp);
            }
          });
    }
    sim.run();
    Outcome out;
    out.fanout_depth = handles[0]->fanout_depth();
    for (const Mcast* h : handles) {
      out.sw_copies += h->software_copies();
      out.deliveries += h->deliveries();
      out.worst_delivery =
          std::max(out.worst_delivery, h->delivery_latency_max());
    }
    for (int c = 0; c < sys.fabric().num_clusters(); ++c) {
      out.switch_copies += sys.fabric().cluster(c).multicast_copies_total();
      EXPECT_EQ(sys.fabric().cluster(c).multicast_copies(99),
                sys.fabric().cluster(c).multicast_copies_total());
    }
    for (const auto& s : sim.counters().samples()) {
      if (s.track == "mcast.g99" && s.counter.rfind("delivery_us.", 0) == 0) {
        out.sampled_delivery = true;
      }
      if (s.counter == "mcast_copies.g99") out.sampled_switch = true;
    }
    return out;
  };

  const Outcome sw = run(McastMode::kSoftwareTree);
  const Outcome hw = run(McastMode::kHardware);

  // Software tree: every one of the 11 non-root members gets its copy from
  // a kernel (10 messages x 11 copies); the switches replicate nothing.
  EXPECT_EQ(sw.sw_copies, 10u * 11u);
  EXPECT_EQ(sw.switch_copies, 0u);
  EXPECT_EQ(sw.fanout_depth, 3);  // floor(log2(12)) kernel hops
  // Hardware: all copies are made in-switch, none in software.
  EXPECT_EQ(hw.sw_copies, 0u);
  EXPECT_GT(hw.switch_copies, 0u);
  EXPECT_EQ(hw.fanout_depth, 1);
  // Every non-root member's delivery was measured, in both modes, and the
  // deeper software tree has the worse worst-case latency.
  EXPECT_EQ(sw.deliveries, 10u * 11u);
  EXPECT_EQ(hw.deliveries, 10u * 11u);
  EXPECT_GT(sw.worst_delivery, 0);
  EXPECT_GT(hw.worst_delivery, 0);
  EXPECT_GT(sw.worst_delivery, hw.worst_delivery);
  // And the timeline carries the per-group tracks the exporter will emit.
  EXPECT_TRUE(sw.sampled_delivery);
  EXPECT_TRUE(hw.sampled_delivery);
  EXPECT_FALSE(sw.sampled_switch);
  EXPECT_TRUE(hw.sampled_switch);
}

TEST(HwMulticast, FlowControlStillGatesTheRoot) {
  sim::Simulator sim;
  SystemConfig cfg;
  cfg.nodes = 9;
  cfg.stations_per_cluster = 4;
  System sys(sim, cfg);
  std::vector<int> idx;
  for (int i = 0; i < 9; ++i) idx.push_back(i);
  auto handles = sys.create_multicast_group(111, idx, 0, McastMode::kHardware);
  std::vector<sim::SimTime> done;
  sys.node(0).spawn_process("root", [&](Subprocess& sp) -> sim::Task<void> {
    for (int m = 0; m < 3; ++m) {
      co_await handles[0]->write(sp, 1024);
      done.push_back(sim.now());
    }
  });
  sim.run();
  ASSERT_EQ(done.size(), 3u);
  // Each write waits for all 8 member acknowledgements.
  EXPECT_GT(done[0], sim::usec(200));
  EXPECT_GT(done[1] - done[0], sim::usec(150));
}

}  // namespace
}  // namespace hpcvorx::vorx
