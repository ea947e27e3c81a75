// Direct tests of the cluster switch (wired by hand, without a Fabric).
#include <gtest/gtest.h>

#include <vector>

#include "fake_link_consumer.hpp"
#include "hw/cluster.hpp"
#include "sim/simulator.hpp"

namespace hpcvorx::hw {
namespace {

struct Rig {
  explicit Rig(sim::Simulator& sim, int ports = 4) : cluster(sim, "c0", ports) {
    for (int p = 0; p < ports; ++p) {
      ins.push_back(std::make_unique<Link>(
          sim, "in" + std::to_string(p),
          Link::Params{.ns_per_byte = 10, .latency = 100, .buffer_frames = 2}));
      outs.push_back(std::make_unique<Link>(
          sim, "out" + std::to_string(p),
          Link::Params{.ns_per_byte = 10, .latency = 100, .buffer_frames = 2}));
      cluster.attach_in(p, ins.back().get());
      cluster.attach_out(p, outs.back().get());
      senders.push_back(std::make_unique<FakeLinkConsumer>());
      receivers.push_back(std::make_unique<FakeLinkConsumer>());
      ins.back()->set_sender(senders.back().get(), p);
      outs.back()->set_receiver(receivers.back().get(), p);
    }
    // Station `dst` is reached through output port dst.
    cluster.set_route_fn([](const Frame& f) { return Cluster::Route{f.dst}; });
  }
  Cluster cluster;
  std::vector<std::unique_ptr<Link>> ins;
  std::vector<std::unique_ptr<Link>> outs;
  // The test's ends of the links: the sender feeding each input link and
  // the receiver draining each output link.
  std::vector<std::unique_ptr<FakeLinkConsumer>> senders;
  std::vector<std::unique_ptr<FakeLinkConsumer>> receivers;
};

Frame frame_to(StationId dst, std::uint32_t payload, std::uint64_t seq = 0) {
  Frame f;
  f.dst = dst;
  f.payload_bytes = payload;
  f.seq = seq;
  return f;
}

TEST(Cluster, ForwardsToRoutedPort) {
  sim::Simulator sim;
  Rig rig(sim);
  std::vector<Frame> got;
  rig.receivers[2]->delivered = [&](int) {
    while (auto f = rig.outs[2]->take()) got.push_back(*std::move(f));
  };
  rig.ins[0]->send(frame_to(2, 32));
  sim.run();
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].dst, 2);
  EXPECT_EQ(got[0].hops, 1);
  EXPECT_EQ(rig.cluster.frames_forwarded(), 1u);
}

TEST(Cluster, IndependentOutputsForwardConcurrently) {
  sim::Simulator sim;
  Rig rig(sim);
  sim::SimTime t2 = -1, t3 = -1;
  rig.receivers[2]->delivered = [&](int) {
    rig.outs[2]->take();
    t2 = sim.now();
  };
  rig.receivers[3]->delivered = [&](int) {
    rig.outs[3]->take();
    t3 = sim.now();
  };
  rig.ins[0]->send(frame_to(2, 32));
  rig.ins[1]->send(frame_to(3, 32));
  sim.run();
  // Same-size frames through disjoint ports finish at the same instant:
  // the star switch has no shared bottleneck (unlike the S/NET bus).
  EXPECT_EQ(t2, t3);
  EXPECT_GT(t2, 0);
}

TEST(Cluster, ContendedOutputServesInputsRoundRobin) {
  sim::Simulator sim;
  Rig rig(sim);
  std::vector<int> src_order;
  rig.receivers[3]->delivered = [&](int) {
    while (auto f = rig.outs[3]->take()) {
      src_order.push_back(static_cast<int>(f->seq));  // seq carries input id
    }
  };
  // Inputs 0, 1, 2 each feed 4 frames for output 3.
  for (int p = 0; p < 3; ++p) {
    auto feed = std::make_shared<std::function<void()>>();
    auto sent = std::make_shared<int>(0);
    Link* in = rig.ins[static_cast<size_t>(p)].get();
    // Keep-alive comes from the ready callback's copy of `feed`; capturing
    // `feed` here too would make the shared_ptr self-referential and leak.
    *feed = [in, p, sent] {
      while (*sent < 4 && in->ready()) {
        Frame f = frame_to(3, 64, static_cast<std::uint64_t>(p));
        in->send(std::move(f));
        ++*sent;
      }
    };
    rig.senders[static_cast<size_t>(p)]->ready = [feed](int) { (*feed)(); };
    (*feed)();
  }
  sim.run();
  ASSERT_EQ(src_order.size(), 12u);
  // Steady state must rotate through all three inputs: no input may get
  // two deliveries while another waits with a frame queued.
  for (std::size_t i = 3; i + 3 <= src_order.size(); i += 3) {
    std::set<int> window(src_order.begin() + static_cast<long>(i),
                         src_order.begin() + static_cast<long>(i + 3));
    EXPECT_EQ(window.size(), 3u) << "unfair window at " << i;
  }
}

TEST(Cluster, MulticastReplicaAccountingInvariant) {
  // The invariant documented in cluster.hpp: a multicast frame replicated
  // to k output ports counts k in frames_forwarded AND k x wire_bytes in
  // bytes_forwarded — exactly like k unicast frames — with the same k
  // attributed to the group via multicast_copies(gid).
  sim::Simulator sim;
  sim.counters().enable(true);
  Rig rig(sim);
  const std::uint64_t gid = 42;
  rig.cluster.set_multicast_route(gid, {1, 2, 3});
  int delivered = 0;
  for (int p = 1; p <= 3; ++p) {
    Link* out = rig.outs[static_cast<std::size_t>(p)].get();
    rig.receivers[static_cast<std::size_t>(p)]->delivered =
        [out, &delivered](int) {
          while (out->take()) ++delivered;
        };
  }
  Frame mf;
  mf.group = gid;
  mf.dst = -1;
  mf.payload_bytes = 100;
  rig.ins[0]->send(std::move(mf));
  sim.run();
  EXPECT_EQ(delivered, 3);
  EXPECT_EQ(rig.cluster.multicast_copies(gid), 3u);
  EXPECT_EQ(rig.cluster.multicast_copies_total(), 3u);
  EXPECT_EQ(rig.cluster.frames_forwarded(), 3u);
  EXPECT_EQ(rig.cluster.bytes_forwarded(), 3u * (100 + kHeaderBytes));

  // A unicast forward afterwards: totals split into unicast + replicas.
  rig.receivers[2]->delivered = [&](int) {
    while (rig.outs[2]->take()) {
    }
  };
  rig.ins[0]->send(frame_to(2, 32));
  sim.run();
  EXPECT_EQ(rig.cluster.frames_forwarded(), 4u);
  EXPECT_EQ(rig.cluster.frames_forwarded(),
            1u + rig.cluster.multicast_copies_total());
  EXPECT_EQ(rig.cluster.multicast_copies(7777), 0u);  // unknown group

  // The replication path sampled the per-group counter track.
  bool sampled = false;
  for (const auto& s : sim.counters().samples()) {
    if (s.track == "c0" && s.counter == "mcast_copies.g42") {
      sampled = true;
      EXPECT_EQ(s.value, 3.0);
    }
  }
  EXPECT_TRUE(sampled);
}

TEST(Cluster, BackpressurePropagatesUpstream) {
  sim::Simulator sim;
  Rig rig(sim);
  // Output 2 is never drained: its link buffers 2 frames, the input fifo
  // holds 2, so at most 4 frames can leave the sender before it stalls.
  int sent = 0;
  Link* in = rig.ins[0].get();
  auto feed = std::make_shared<std::function<void()>>();
  *feed = [in, &sent] {
    while (sent < 10 && in->ready()) {
      Frame f;
      f.dst = 2;
      f.payload_bytes = 16;
      in->send(std::move(f));
      ++sent;
    }
  };
  rig.senders[0]->ready = [feed](int) { (*feed)(); };
  (*feed)();
  sim.run();
  EXPECT_LE(sent, 5);  // 2 downstream + 2 input fifo + 1 in transit
  EXPECT_LT(sent, 10);
  // Draining the output lets the rest flow.
  rig.receivers[2]->delivered = [&](int) {
    while (rig.outs[2]->take()) {
    }
  };
  while (rig.outs[2]->take()) {
  }
  sim.run();
  EXPECT_EQ(sent, 10);
}

}  // namespace
}  // namespace hpcvorx::hw
