// Tests for the flow-controlled HPC link model.
#include <gtest/gtest.h>

#include <cstddef>
#include <deque>
#include <optional>
#include <vector>

#include "fake_link_consumer.hpp"
#include "hw/frame_pool.hpp"
#include "hw/frame_ring.hpp"
#include "hw/link.hpp"
#include "sim/random.hpp"
#include "sim/shard_runtime.hpp"
#include "sim/simulator.hpp"

namespace hpcvorx::hw {
namespace {

Frame frame_to(StationId dst, std::uint32_t payload) {
  Frame f;
  f.dst = dst;
  f.payload_bytes = payload;
  return f;
}

TEST(FrameRing, AllocatesOnFirstFrameAndDoublesUpToItsBound) {
  FrameRing ring(5);
  EXPECT_EQ(ring.capacity(), 0u);
  std::vector<std::size_t> caps;
  for (std::uint64_t i = 0; i < 5; ++i) {
    Frame f;
    f.seq = i;
    ring.push_back(f);
    caps.push_back(ring.capacity());
  }
  EXPECT_EQ(caps, (std::vector<std::size_t>{1, 2, 4, 4, 5}));
  for (std::uint64_t i = 0; i < 5; ++i) EXPECT_EQ(ring.pop_front().seq, i);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 5u);
}

TEST(FrameRing, MatchesADequeAcrossWrapAndGrowth) {
  // A bound that is not a power of two: growth stops at 2, 4, then 7.
  FrameRing ring(7);
  std::deque<std::uint64_t> ref;
  sim::Rng rng(3);
  std::uint64_t next = 0;
  for (int step = 0; step < 2000; ++step) {
    if (ref.size() < 7 && (ref.empty() || rng.chance(0.55))) {
      Frame f;
      f.seq = next;
      ring.push_back(f);
      ref.push_back(next++);
    } else {
      EXPECT_EQ(ring.pop_front().seq, ref.front());
      ref.pop_front();
    }
    ASSERT_EQ(ring.size(), ref.size());
    for (std::size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(ring[i].seq, ref[i]) << "step " << step << " index " << i;
    }
  }
  EXPECT_LE(ring.capacity(), 7u);
}

TEST(FrameRing, ClearReleasesPayloadsAndKeepsStorage) {
  FrameRing ring(2);
  const Payload data = make_payload(std::vector<std::byte>(4));
  Frame f;
  f.data = data;
  ring.push_back(f);
  ring.push_back(std::move(f));
  EXPECT_EQ(data.use_count(), 3);
  ring.clear();
  EXPECT_EQ(data.use_count(), 1);
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.capacity(), 2u);
}

// A 4096-station fabric holds 18,432 links, and every buffered frame is a
// Frame: typed consumers, split-only state in a side object and 32-bit
// ring counts keep a whole link at 168 bytes or less, and field order
// keeps a frame free of padding.  Pinned for the 64-bit g++ toolchain the
// project builds with.
TEST(LinkLayout, WholeLinkAndFrameStayCompact) {
  EXPECT_LE(sizeof(Link), 168u);
  EXPECT_EQ(sizeof(Frame), 80u);
}

TEST(Link, DeliversAfterSerializationPlusLatency) {
  sim::Simulator sim;
  Link link(sim, "l", {.ns_per_byte = 50, .latency = 500, .buffer_frames = 2});
  ASSERT_TRUE(link.ready());
  sim::SimTime delivered_at = -1;
  FakeLinkConsumer rx;
  rx.delivered = [&](int) { delivered_at = sim.now(); };
  link.set_receiver(&rx, 0);
  link.send(frame_to(1, 84));  // wire = 84 + 16 = 100 bytes
  sim.run();
  EXPECT_EQ(delivered_at, 100 * 50 + 500);
  ASSERT_NE(link.peek(), nullptr);
  EXPECT_EQ(link.peek()->payload_bytes, 84u);
}

TEST(Link, TransmitterFreesAfterSerialization) {
  sim::Simulator sim;
  Link link(sim, "l", {.ns_per_byte = 50, .latency = 500, .buffer_frames = 4});
  link.send(frame_to(1, 84));
  EXPECT_FALSE(link.ready());  // busy serializing
  sim.run_until(100 * 50 - 1);
  EXPECT_FALSE(link.ready());
  sim.run_until(100 * 50);
  EXPECT_TRUE(link.ready());  // wire free, slots remain
}

TEST(Link, RefusesWhenDownstreamBufferFull) {
  sim::Simulator sim;
  Link link(sim, "l", {.ns_per_byte = 1, .latency = 0, .buffer_frames = 2});
  link.send(frame_to(1, 10));
  sim.run();
  link.send(frame_to(1, 10));
  sim.run();
  // Two frames buffered downstream, nobody consuming: link must refuse.
  EXPECT_EQ(link.buffered(), 2u);
  EXPECT_FALSE(link.ready());
}

TEST(Link, TakeFreesSlotAndFiresReadyCb) {
  sim::Simulator sim;
  Link link(sim, "l", {.ns_per_byte = 1, .latency = 0, .buffer_frames = 1});
  int ready_calls = 0;
  FakeLinkConsumer tx;
  tx.ready = [&](int) { ++ready_calls; };
  link.set_sender(&tx, 0);
  link.send(frame_to(1, 10));
  sim.run();
  EXPECT_FALSE(link.ready());
  ready_calls = 0;
  std::optional<Frame> f = link.take();
  ASSERT_TRUE(f.has_value());
  EXPECT_TRUE(link.ready());
  EXPECT_GE(ready_calls, 1);
}

TEST(Link, FramesArriveInOrder) {
  sim::Simulator sim;
  Link link(sim, "l", {.ns_per_byte = 2, .latency = 100, .buffer_frames = 8});
  std::vector<std::uint64_t> got;
  FakeLinkConsumer ends;
  ends.delivered = [&](int) {
    while (const Frame* f = link.peek()) {
      got.push_back(f->seq);
      link.take();
    }
  };
  link.set_receiver(&ends, 0);
  // Feed frames whenever the transmitter is free.
  std::uint64_t next = 0;
  auto feed = [&] {
    while (next < 5 && link.ready()) {
      Frame f = frame_to(1, 32);
      f.seq = next++;
      link.send(std::move(f));
    }
  };
  ends.ready = [&](int) { feed(); };
  link.set_sender(&ends, 0);
  feed();
  sim.run();
  EXPECT_EQ(got, (std::vector<std::uint64_t>{0, 1, 2, 3, 4}));
}

TEST(Link, PipelinesWhenBufferAllows) {
  // With a deep buffer the link should sustain one frame per serialization
  // time, i.e. back-to-back transmission.
  sim::Simulator sim;
  Link link(sim, "l", {.ns_per_byte = 10, .latency = 1000, .buffer_frames = 16});
  int delivered = 0;
  FakeLinkConsumer ends;
  ends.delivered = [&](int) {
    while (link.peek() != nullptr) {
      link.take();
      ++delivered;
    }
  };
  link.set_receiver(&ends, 0);
  int sent = 0;
  auto feed = [&] {
    while (sent < 10 && link.ready()) {
      link.send(frame_to(1, 84));  // wire 100 B -> 1000 ns each
      ++sent;
    }
  };
  ends.ready = [&](int) { feed(); };
  link.set_sender(&ends, 0);
  feed();
  sim.run();
  EXPECT_EQ(delivered, 10);
  // 10 frames x 1000 ns serialization + one 1000 ns latency.
  EXPECT_EQ(sim.now(), 10 * 1000 + 1000);
}

TEST(Link, CarriedCountTracksDeliveries) {
  sim::Simulator sim;
  Link link(sim, "l", {.ns_per_byte = 1, .latency = 0, .buffer_frames = 4});
  FakeLinkConsumer rx;
  rx.delivered = [&](int) { link.take(); };
  link.set_receiver(&rx, 0);
  link.send(frame_to(1, 4));
  sim.run();
  link.send(frame_to(1, 4));
  sim.run();
  EXPECT_EQ(link.frames_carried(), 2u);
}

TEST(Link, SetDownDropsLandedAndInFlightFrames) {
  sim::Simulator sim;
  Link link(sim, "l", {.ns_per_byte = 1, .latency = 100, .buffer_frames = 4});
  int delivered = 0;
  int ready_calls = 0;
  FakeLinkConsumer ends;
  ends.delivered = [&](int) { ++delivered; };
  ends.ready = [&](int) { ++ready_calls; };
  link.set_receiver(&ends, 0);
  link.set_sender(&ends, 0);
  link.send(frame_to(1, 10));  // wire 26 B: tx frees at 26, lands at 126
  sim.run_until(126);
  ASSERT_EQ(link.buffered(), 1u);
  link.send(frame_to(1, 10));  // tx frees at 152, lands at 252
  sim.run_until(130);
  ASSERT_FALSE(link.ready());  // still serializing the second frame

  ready_calls = 0;
  link.set_down();
  EXPECT_TRUE(link.is_down());
  EXPECT_EQ(link.frames_dropped(), 2u);
  EXPECT_EQ(link.buffered(), 0u);
  EXPECT_EQ(link.peek(), nullptr);
  EXPECT_FALSE(link.ready());
  // The second frame's tx-free and delivery events are stale: they fire
  // but neither frees the transmitter nor lands a frame.
  sim.run();
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(ready_calls, 0);
  EXPECT_EQ(link.frames_carried(), 1u);
  EXPECT_EQ(link.buffered(), 0u);
  EXPECT_FALSE(link.ready());

  link.set_up();
  EXPECT_FALSE(link.is_down());
  EXPECT_TRUE(link.ready());
  EXPECT_EQ(link.buffered(), 0u);
  EXPECT_EQ(link.queue_depth(), 0u);
  EXPECT_EQ(ready_calls, 1);
  EXPECT_EQ(link.frames_dropped(), 2u);
}

// ---------------------------------------------------------------------------
// Split links: a TX half on shard 0 and an RX half on shard 1 of a real
// 2-shard runtime (these run shard threads; CI repeats them under TSan).
// Each test variable is written on one shard's thread only and read after
// run() has joined the workers.
// ---------------------------------------------------------------------------

struct SplitPair {
  explicit SplitPair(Link::Params p)
      : rt(2), tx(rt.shard(0), "x.tx", p), rx(rt.shard(1), "x.rx", p) {
    Link::split(rt, 0, 1, tx, rx);
  }
  sim::Simulator& tx_sim() { return rt.shard(0); }
  sim::Simulator& rx_sim() { return rt.shard(1); }

  sim::ShardRuntime rt;
  Link tx;
  Link rx;
};

TEST(LinkSplit, LandsAfterSerializationPlusLatencyWithDetachedPayload) {
  SplitPair s({.ns_per_byte = 50, .latency = 500, .buffer_frames = 2});
  EXPECT_EQ(s.tx.peer(), &s.rx);
  EXPECT_EQ(s.rx.peer(), &s.tx);
  EXPECT_EQ(s.rt.lookahead(), 500);
  FramePool pool;  // shard 0's pool: its buffers may not change shards
  const void* pooled = nullptr;
  s.tx_sim().post_at(1000, [&] {
    Frame f = frame_to(1, 84);  // wire 100 B -> 5000 ns
    f.data = pool.make(std::vector<std::byte>(84, std::byte{0x5a}));
    pooled = f.data.get();
    s.tx.send(std::move(f));
  });
  sim::SimTime landed_at = -1;
  const void* landed_data = nullptr;
  std::vector<std::byte> landed_bytes;
  FakeLinkConsumer rx;
  rx.delivered = [&](int) {
    landed_at = s.rx_sim().now();
    const Frame* f = s.rx.peek();
    ASSERT_NE(f, nullptr);
    ASSERT_NE(f->data, nullptr);
    landed_data = f->data.get();
    landed_bytes = *f->data;
  };
  s.rx.set_receiver(&rx, 0);
  s.rt.run();
  EXPECT_EQ(landed_at, 1000 + 100 * 50 + 500);
  EXPECT_EQ(s.rx.buffered(), 1u);
  EXPECT_NE(landed_data, nullptr);
  EXPECT_NE(landed_data, pooled);
  EXPECT_EQ(landed_bytes, std::vector<std::byte>(84, std::byte{0x5a}));
  // The RX half, which owns the buffer, counts the landed frame, as a
  // whole link does; the TX half counts nothing.
  EXPECT_EQ(s.rx.frames_carried(), 1u);
  EXPECT_EQ(s.tx.frames_carried(), 0u);
  EXPECT_EQ(s.tx.queue_depth(), 1u);  // the slot is reserved until a take
}

TEST(LinkSplit, ConsumersHearTheirOwnPort) {
  // The TX half's sender sits at port 3 on shard 0, the RX half's receiver
  // at port 7 on shard 1.  Each hears only its own side's calls, with its
  // own port; the other side's handler must never run.
  SplitPair s({.ns_per_byte = 1, .latency = 1000, .buffer_frames = 1});
  std::vector<int> sender_ports;    // written on shard 0's thread only
  std::vector<int> receiver_ports;  // written on shard 1's thread only
  int sent = 0;
  FakeLinkConsumer sender;
  sender.ready = [&](int port) {
    sender_ports.push_back(port);
    if (sent < 3 && s.tx.ready()) {
      s.tx.send(frame_to(1, 10));
      ++sent;
    }
  };
  sender.delivered = [&](int port) { sender_ports.push_back(-1 - port); };
  FakeLinkConsumer receiver;
  receiver.delivered = [&](int port) {
    receiver_ports.push_back(port);
    EXPECT_TRUE(s.rx.take().has_value());
  };
  receiver.ready = [&](int port) { receiver_ports.push_back(-1 - port); };
  s.tx.set_sender(&sender, 3);
  s.rx.set_receiver(&receiver, 7);
  s.tx_sim().post_at(0, [&] {
    s.tx.send(frame_to(1, 10));
    ++sent;
  });
  s.rt.run();
  // One slot: every ready call is a credit, one per frame taken.
  EXPECT_EQ(sent, 3);
  EXPECT_EQ(sender_ports, (std::vector<int>{3, 3, 3}));
  EXPECT_EQ(receiver_ports, (std::vector<int>{7, 7, 7}));
}

TEST(LinkSplit, TxSlotFreesOneLatencyAfterRxTake) {
  SplitPair s({.ns_per_byte = 1, .latency = 1000, .buffer_frames = 1});
  s.tx_sim().post_at(0, [&] { s.tx.send(frame_to(1, 10)); });  // lands 1026
  sim::SimTime taken_at = -1;
  FakeLinkConsumer rx;
  rx.delivered = [&](int) {
    s.rx_sim().post_after(300, [&] {
      taken_at = s.rx_sim().now();
      EXPECT_TRUE(s.rx.take().has_value());
    });
  };
  s.rx.set_receiver(&rx, 0);
  std::vector<sim::SimTime> ready_at;
  std::vector<std::size_t> depth_before_credit;
  FakeLinkConsumer tx;
  tx.ready = [&](int) { ready_at.push_back(s.tx_sim().now()); };
  s.tx.set_sender(&tx, 0);
  // Probe the TX half one tick before the credit is due.
  s.tx_sim().post_at(1026 + 300 + 1000 - 1, [&] {
    depth_before_credit.push_back(s.tx.queue_depth());
    EXPECT_FALSE(s.tx.ready());
  });
  s.rt.run();
  EXPECT_EQ(taken_at, 1026 + 300);
  EXPECT_EQ(depth_before_credit, std::vector<std::size_t>{1});
  // The transmitter freed at 26, but the one slot stayed reserved: the
  // first ready callback is the credit, exactly one latency after take().
  ASSERT_EQ(ready_at.size(), 1u);
  EXPECT_EQ(ready_at[0], taken_at + 1000);
  EXPECT_TRUE(s.tx.ready());
  EXPECT_EQ(s.tx.queue_depth(), 0u);
}

TEST(LinkSplit, FaultMidTransferDropsAndCreditsWithoutLeakingSlots) {
  SplitPair s({.ns_per_byte = 1, .latency = 1000, .buffer_frames = 2});
  // A (sent at 0) lands at 1026 and is left parked; B (sent at 100) is
  // still on the wire, due at 1126, when the cable fails at 1050.  The
  // cable is replaced at 1500; C (sent at 3000) then crosses normally.
  s.tx_sim().post_at(0, [&] { s.tx.send(frame_to(1, 10)); });
  s.tx_sim().post_at(100, [&] { s.tx.send(frame_to(1, 10)); });
  for (Link* half : {&s.tx, &s.rx}) {
    sim::Simulator& sim = half == &s.tx ? s.tx_sim() : s.rx_sim();
    sim.post_at(1050, [half] { half->set_down(); });
    sim.post_at(1500, [half] { half->set_up(); });
  }
  std::vector<std::size_t> tx_depth;
  std::vector<bool> tx_ready;
  for (const sim::SimTime t : {1051, 1501}) {
    s.tx_sim().post_at(t, [&] {
      tx_depth.push_back(s.tx.queue_depth());
      tx_ready.push_back(s.tx.ready());
    });
  }
  s.tx_sim().post_at(3000, [&] {
    ASSERT_TRUE(s.tx.ready());
    s.tx.send(frame_to(1, 10));  // lands 4026
  });
  std::vector<sim::SimTime> taken_at;
  FakeLinkConsumer rx;
  rx.delivered = [&](int) {
    if (s.rx_sim().now() < 3000) return;  // leave A parked
    taken_at.push_back(s.rx_sim().now());
    EXPECT_TRUE(s.rx.take().has_value());
  };
  s.rx.set_receiver(&rx, 0);
  s.rt.run();
  // The fault cleared A from the buffer and B from the wire; the TX half's
  // set_down() reclaimed both slots, so no credit is owed for either.
  EXPECT_EQ(s.rx.frames_dropped(), 2u);
  EXPECT_EQ(s.tx.frames_dropped(), 0u);
  EXPECT_EQ(tx_depth, (std::vector<std::size_t>{0, 0}));
  EXPECT_EQ(tx_ready, (std::vector<bool>{false, true}));
  EXPECT_EQ(taken_at, std::vector<sim::SimTime>{4026});
  // A and C landed; B never did.
  EXPECT_EQ(s.rx.frames_carried(), 2u);
  EXPECT_EQ(s.tx.frames_carried(), 0u);
  EXPECT_EQ(s.rx.buffered(), 0u);
  EXPECT_EQ(s.tx.queue_depth(), 0u);
  EXPECT_TRUE(s.tx.ready());
  EXPECT_FALSE(s.rx.is_down());
}

TEST(LinkSplit, StaleCreditAfterRecoveryCannotFreeAnOccupiedSlot) {
  SplitPair s({.ns_per_byte = 1, .latency = 1000, .buffer_frames = 1});
  // A (sent at 0) lands at 1026 and is taken at 1030; its credit is due at
  // 2030.  The cable flaps 1040-1100 first, so the recovered TX half owns
  // the one slot again, and B (sent at 1200, lands 2226) takes it and
  // stays parked.  A's credit is stale: it must not free B's slot.
  s.tx_sim().post_at(0, [&] { s.tx.send(frame_to(1, 10)); });
  s.rx_sim().post_at(1030, [&] { EXPECT_TRUE(s.rx.take().has_value()); });
  for (Link* half : {&s.tx, &s.rx}) {
    sim::Simulator& sim = half == &s.tx ? s.tx_sim() : s.rx_sim();
    sim.post_at(1040, [half] { half->set_down(); });
    sim.post_at(1100, [half] { half->set_up(); });
  }
  s.tx_sim().post_at(1200, [&] {
    ASSERT_TRUE(s.tx.ready());
    s.tx.send(frame_to(1, 10));
  });
  // Readiness after B would be a freed slot: fill it once, as a switch
  // would.
  std::vector<sim::SimTime> ready_at;
  FakeLinkConsumer tx;
  tx.ready = [&](int) {
    ready_at.push_back(s.tx_sim().now());
    if (ready_at.size() == 2) s.tx.send(frame_to(1, 10));
  };
  s.tx.set_sender(&tx, 0);
  s.rt.run();
  EXPECT_EQ(ready_at, std::vector<sim::SimTime>{1100});
  EXPECT_EQ(s.rx.frames_dropped(), 0u);
  EXPECT_FALSE(s.rx.is_down());
  EXPECT_EQ(s.rx.buffered(), 1u);
  EXPECT_EQ(s.rx.frames_carried(), 2u);
  EXPECT_EQ(s.tx.queue_depth(), 1u);
  EXPECT_FALSE(s.tx.ready());
}

TEST(LinkSplit, FlapDropsInFlightFrameLikeAWholeLink) {
  // One frame, sent at 0 and due at 1026, is on the wire while the cable
  // flaps 500-600: a whole link and a split pair must both lose it.
  const Link::Params p{.ns_per_byte = 1, .latency = 1000, .buffer_frames = 2};
  const auto flap = [](sim::Simulator& sim, Link& half) {
    sim.post_at(500, [&half] { half.set_down(); });
    sim.post_at(600, [&half] { half.set_up(); });
  };

  sim::Simulator sim;
  Link whole(sim, "w", p);
  int whole_delivered = 0;
  FakeLinkConsumer whole_rx;
  whole_rx.delivered = [&](int) { ++whole_delivered; };
  whole.set_receiver(&whole_rx, 0);
  sim.post_at(0, [&] { whole.send(frame_to(1, 10)); });
  flap(sim, whole);
  sim.run();

  SplitPair s(p);
  int split_delivered = 0;
  FakeLinkConsumer split_rx;
  split_rx.delivered = [&](int) { ++split_delivered; };
  s.rx.set_receiver(&split_rx, 0);
  s.tx_sim().post_at(0, [&] { s.tx.send(frame_to(1, 10)); });
  flap(s.tx_sim(), s.tx);
  flap(s.rx_sim(), s.rx);
  s.rt.run();

  EXPECT_EQ(whole_delivered, 0);
  EXPECT_EQ(whole.frames_dropped(), 1u);
  EXPECT_EQ(split_delivered, 0);
  EXPECT_EQ(s.rx.frames_dropped() + s.tx.frames_dropped(), 1u);
  // Both cables come back empty and ready.
  EXPECT_TRUE(whole.ready());
  EXPECT_EQ(whole.buffered(), 0u);
  EXPECT_TRUE(s.tx.ready());
  EXPECT_EQ(s.tx.queue_depth(), 0u);
  EXPECT_EQ(s.rx.buffered(), 0u);
}

}  // namespace
}  // namespace hpcvorx::hw
