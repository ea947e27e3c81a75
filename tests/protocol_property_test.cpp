// Property sweeps over the communications protocols and the distributed
// applications: correctness must hold across window sizes, message sizes,
// seeds, partition counts, and mixed traffic.
#include <gtest/gtest.h>

#include <memory>
#include <ostream>

#include "apps/cemu_app.hpp"
#include "apps/fft2d_app.hpp"
#include "vorx/multicast.hpp"
#include "vorx/protocols/sliding_window.hpp"
#include "vorx_test_util.hpp"

namespace hpcvorx::vorx {
namespace {

// ---------------------------------------------------------------------------
// Sliding window: lossless in-order payload delivery with bounded
// receiver occupancy, for every (window, size) combination.
// ---------------------------------------------------------------------------

struct SwpParam {
  int window;
  std::uint32_t bytes;
};

// ctest names each case by this instead of the struct's raw bytes.
void PrintTo(const SwpParam& p, std::ostream* os) {
  *os << 'w' << p.window << "_b" << p.bytes;
}

class SwpSweep : public ::testing::TestWithParam<SwpParam> {};

TEST_P(SwpSweep, LosslessOrderedBounded) {
  const auto [window, bytes] = GetParam();
  sim::Simulator sim;
  System sys(sim, SystemConfig{});
  constexpr int kMsgs = 120;
  std::vector<std::uint64_t> got;
  std::size_t max_backlog = 0;
  const std::uint32_t nbytes = bytes;

  sys.node(0).spawn_process("tx", [&](Subprocess& sp) -> sim::Task<void> {
    Udco* u = co_await sp.open_udco("prop");
    SlidingWindowSender tx(*u);
    for (int i = 0; i < kMsgs; ++i) {
      EXPECT_LE(tx.credits(), window);
      co_await tx.send(sp, nbytes,
                       hw::make_payload(testutil::pattern_bytes(
                           nbytes, static_cast<std::uint64_t>(i))));
    }
  });
  sys.node(1).spawn_process("rx", [&, window](Subprocess& sp) -> sim::Task<void> {
    Udco* u = co_await sp.open_udco("prop");
    SlidingWindowReceiver rx(*u, window);
    co_await rx.start(sp);
    for (int i = 0; i < kMsgs; ++i) {
      max_backlog = std::max(max_backlog, u->pending());
      hw::Frame f = co_await rx.recv(sp);
      got.push_back(testutil::fnv1a(*f.data));
    }
  });
  sim.run();
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kMsgs));
  for (int i = 0; i < kMsgs; ++i) {
    EXPECT_EQ(got[static_cast<std::size_t>(i)],
              testutil::fnv1a(testutil::pattern_bytes(
                  nbytes, static_cast<std::uint64_t>(i))))
        << "msg " << i;
  }
  EXPECT_LE(max_backlog, static_cast<std::size_t>(window));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SwpSweep,
    ::testing::Values(SwpParam{1, 4}, SwpParam{1, 1024}, SwpParam{2, 64},
                      SwpParam{3, 256}, SwpParam{8, 4}, SwpParam{8, 512},
                      SwpParam{16, 1024}, SwpParam{64, 4}, SwpParam{64, 1024}));

// ---------------------------------------------------------------------------
// Mixed unicast + hardware-multicast traffic through the same fabric.
// ---------------------------------------------------------------------------

TEST(MixedTraffic, UnicastAndHardwareMulticastCoexist) {
  sim::Simulator sim;
  auto fab = hw::Fabric::make(sim, 16, 4);
  std::vector<hw::StationId> members{0, 3, 6, 9, 12, 15};
  fab->add_multicast_group(5, /*root=*/0, members);

  std::vector<int> mcast_got(16, 0);
  std::vector<int> ucast_got(16, 0);
  for (int s = 0; s < 16; ++s) {
    fab->endpoint(s).set_rx_cb([&fab, s, &mcast_got, &ucast_got] {
      while (auto f = fab->endpoint(s).rx_take()) {
        (f->group != 0 ? mcast_got : ucast_got)[static_cast<std::size_t>(s)]++;
      }
    });
  }

  // Unicast cross-traffic from every station, interleaved with group
  // frames from the root.
  struct Feeder {
    std::vector<hw::Frame> frames;
    std::size_t next = 0;
  };
  auto feeders = std::make_shared<std::vector<Feeder>>(16);
  sim::Rng rng(31);
  int unicast_total = 0;
  for (int s = 0; s < 16; ++s) {
    const int n = 8 + static_cast<int>(rng.below(8));
    for (int i = 0; i < n; ++i) {
      hw::Frame f;
      int dst = static_cast<int>(rng.below(16));
      if (dst == s) dst = (dst + 1) % 16;
      f.dst = dst;
      f.payload_bytes = 64 + static_cast<std::uint32_t>(rng.below(900));
      (*feeders)[static_cast<std::size_t>(s)].frames.push_back(std::move(f));
      ++unicast_total;
    }
  }
  // The root interleaves 6 multicast frames into its stream.
  for (int m = 0; m < 6; ++m) {
    hw::Frame f;
    f.group = 5;
    f.dst = -1;
    f.payload_bytes = 500;
    auto& q = (*feeders)[0].frames;
    q.insert(q.begin() + static_cast<long>(m * 2), std::move(f));
  }
  for (int s = 0; s < 16; ++s) {
    hw::Endpoint& ep = fab->endpoint(s);
    auto feed = std::make_shared<std::function<void()>>();
    *feed = [&ep, feeders, s] {
      Feeder& me = (*feeders)[static_cast<std::size_t>(s)];
      while (me.next < me.frames.size() && ep.tx_ready()) {
        ep.transmit(me.frames[me.next++]);
      }
    };
    ep.set_tx_ready_cb([feed] { (*feed)(); });
    (*feed)();
  }
  sim.run();

  int unicast_delivered = 0;
  for (int s = 0; s < 16; ++s) {
    unicast_delivered += ucast_got[static_cast<std::size_t>(s)];
    const bool member =
        std::find(members.begin(), members.end(), s) != members.end();
    EXPECT_EQ(mcast_got[static_cast<std::size_t>(s)],
              member && s != 0 ? 6 : 0)
        << "station " << s;
  }
  EXPECT_EQ(unicast_delivered, unicast_total);
}

}  // namespace
}  // namespace hpcvorx::vorx

namespace hpcvorx::apps {
namespace {

// ---------------------------------------------------------------------------
// CEMU: trace equivalence across transports, windows, and circuit seeds.
// ---------------------------------------------------------------------------

class CemuSeeds : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CemuSeeds, AllTransportsAgreeWithSerial) {
  std::uint64_t traces[3];
  int i = 0;
  for (const auto& [transport, window] :
       {std::pair{CemuTransport::kChannels, 0},
        std::pair{CemuTransport::kSlidingWindow, 2},
        std::pair{CemuTransport::kSlidingWindow, 16}}) {
    sim::Simulator sim;
    vorx::SystemConfig scfg;
    scfg.nodes = 4;
    vorx::System sys(sim, scfg);
    CemuConfig cfg;
    cfg.cycles = 80;
    cfg.seed = GetParam();
    cfg.transport = transport;
    cfg.window = window;
    const CemuResult res = run_cemu(sim, sys, cfg);
    ASSERT_TRUE(res.matches_serial) << "seed " << GetParam();
    traces[i++] = res.trace;
  }
  EXPECT_EQ(traces[0], traces[1]);
  EXPECT_EQ(traces[1], traces[2]);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CemuSeeds,
                         ::testing::Values(101, 202, 303, 404, 505));

// ---------------------------------------------------------------------------
// 2-D FFT: bit-exactness across sizes, partitions, exchanges, topologies.
// ---------------------------------------------------------------------------

struct FftSweepParam {
  int n;
  int p;
  bool multicast;
  vorx::McastMode mode;
};

// Without a printer, gtest names each case by the struct's raw bytes, and
// the padding after `multicast` is uninitialised, so the names changed
// from one process to the next.
void PrintTo(const FftSweepParam& param, std::ostream* os) {
  *os << 'n' << param.n << "_p" << param.p << '_'
      << (param.multicast ? "multicast" : "personalized") << '_'
      << (param.mode == vorx::McastMode::kHardware ? "hardware" : "tree");
}

class Fft2dSweep : public ::testing::TestWithParam<FftSweepParam> {};

TEST_P(Fft2dSweep, BitExactAgainstSerial) {
  const auto [n, p, multicast, mode] = GetParam();
  sim::Simulator sim;
  vorx::SystemConfig scfg;
  scfg.nodes = p;
  scfg.stations_per_cluster = 4;
  vorx::System sys(sim, scfg);
  Fft2dConfig cfg;
  cfg.n = n;
  cfg.p = p;
  cfg.use_multicast = multicast;
  cfg.mcast_mode = mode;
  cfg.seed = static_cast<std::uint64_t>(n * 1000 + p);
  const Fft2dResult res = run_fft2d(sim, sys, cfg);
  EXPECT_TRUE(res.matches_serial);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, Fft2dSweep,
    ::testing::Values(
        FftSweepParam{16, 2, false, vorx::McastMode::kSoftwareTree},
        FftSweepParam{32, 8, false, vorx::McastMode::kSoftwareTree},
        FftSweepParam{64, 16, false, vorx::McastMode::kSoftwareTree},
        FftSweepParam{32, 8, true, vorx::McastMode::kSoftwareTree},
        FftSweepParam{32, 8, true, vorx::McastMode::kHardware},
        FftSweepParam{64, 16, true, vorx::McastMode::kHardware}));

}  // namespace
}  // namespace hpcvorx::apps
