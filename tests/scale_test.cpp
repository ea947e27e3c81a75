// Scale tests: the production Figure-1 machine (70 nodes + 10
// workstations) under application traffic, and the §1 thousand-node
// fabric under raw load.
#include <gtest/gtest.h>

#include <memory>

#include "hw/traffic.hpp"
#include "vorx_test_util.hpp"

namespace hpcvorx::vorx {
namespace {

TEST(Scale, ProductionMachineRunsAMixedWorkloadStorm) {
  // 35 channel pairs across all 70 nodes open and exchange simultaneously
  // (the §3.2 start-up storm at full production scale), while the hosts
  // run stub traffic.
  sim::Simulator sim;
  SystemConfig cfg;
  cfg.nodes = 70;
  cfg.hosts = 10;
  cfg.stations_per_cluster = 4;
  System sys(sim, cfg);

  constexpr int kPairs = 35;
  constexpr int kMsgs = 10;
  auto exchanged = std::make_shared<int>(0);
  sim::Rng rng(2026);
  for (int p = 0; p < kPairs; ++p) {
    const int a = 2 * p;
    const int b = 2 * p + 1;
    const auto bytes = static_cast<std::uint32_t>(64 + rng.below(960));
    const std::string name = "storm" + std::to_string(p);
    sys.node(a).spawn_process(
        "w" + std::to_string(p),
        [name, bytes, exchanged](Subprocess& sp) -> sim::Task<void> {
          Channel* ch = co_await sp.open(name);
          for (int i = 0; i < kMsgs; ++i) {
            co_await sp.write(*ch, bytes);
            (void)co_await sp.read(*ch);
            ++*exchanged;
          }
        });
    sys.node(b).spawn_process(
        "r" + std::to_string(p), [name, bytes](Subprocess& sp) -> sim::Task<void> {
          Channel* ch = co_await sp.open(name);
          for (int i = 0; i < kMsgs; ++i) {
            ChannelMsg m = co_await sp.read(*ch);
            co_await sp.write(*ch, m.bytes);
          }
        });
  }
  // Host-side load: every workstation serves a stub for one node process.
  auto files_written = std::make_shared<int>(0);
  for (int h = 0; h < 10; ++h) {
    Stub& stub = sys.host(h).make_stub();
    Process& p = sys.node(60 + h % 10).spawn_process(
        "io" + std::to_string(h), [files_written](Subprocess& sp) -> sim::Task<void> {
          SyscallResult fd = co_await sp.sys_open("/scratch");
          (void)co_await sp.sys_write(
              static_cast<int>(fd.value),
              hw::make_payload(testutil::pattern_bytes(128, 1)));
          (void)co_await sp.sys_close(static_cast<int>(fd.value));
          ++*files_written;
        });
    p.bind_syscalls(std::make_unique<SyscallClient>(
        sys.node(60 + h % 10), sys.host_station(h), stub.id()));
  }
  sim.run();
  EXPECT_EQ(*exchanged, kPairs * kMsgs);
  EXPECT_EQ(*files_written, 10);
  // The distributed object managers shared the open load.
  int managers_used = 0;
  std::uint64_t served = 0;
  for (int n = 0; n < 70; ++n) {
    managers_used += sys.node(n).om().opens_served() > 0;
    served += sys.node(n).om().opens_served();
  }
  EXPECT_EQ(served, 2u * kPairs);
  EXPECT_GE(managers_used, 10);
}

TEST(Scale, ThousandNodeFabricCarriesCrossCubeTraffic) {
  // The §1 scaling claim exercised, not just constructed: frames between
  // antipodal corners of the 256-cluster hypercube, plus a hardware
  // multicast spanning 32 members across the cube.
  sim::Simulator sim;
  auto fab = hw::Fabric::hypercube(sim, 1024, 4);
  ASSERT_EQ(fab->num_clusters(), 256);

  const hw::FabricTraffic traffic(*fab, {});

  // 64 random long-haul unicast frames.
  sim::Rng rng(77);
  std::map<int, int> expect;
  for (int i = 0; i < 64; ++i) {
    const int src = static_cast<int>(rng.below(1024));
    int dst = static_cast<int>(rng.below(1024));
    if (dst == src) dst = (dst + 1) % 1024;
    hw::Frame f;
    f.dst = dst;
    f.payload_bytes = 256;
    fab->endpoint(src).transmit(std::move(f));
    ++expect[dst];
    sim.run();
  }
  for (const auto& [dst, n] : expect) {
    EXPECT_EQ(traffic.received(dst).size(), static_cast<std::size_t>(n))
        << "station " << dst;
  }

  // Hardware multicast across the cube.
  std::vector<hw::StationId> members;
  for (int m = 0; m < 32; ++m) members.push_back(m * 33 % 1024);
  fab->add_multicast_group(9, members[0], members);
  hw::Frame g;
  g.group = 9;
  g.dst = -1;
  g.payload_bytes = 512;
  fab->endpoint(members[0]).transmit(std::move(g));
  sim.run();
  auto group_frames = [&traffic](int s) {
    const auto& got = traffic.received(s);
    return std::count_if(got.begin(), got.end(),
                         [](const hw::Delivery& d) { return d.group == 9; });
  };
  // Every member except the root, exactly once, and nothing else.
  EXPECT_EQ(traffic.delivered(), 64u + 31u);
  for (std::size_t m = 1; m < members.size(); ++m) {
    EXPECT_EQ(group_frames(members[m]), 1);
  }
}

}  // namespace
}  // namespace hpcvorx::vorx
