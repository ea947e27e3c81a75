// Tests for the S/NET bus baseline, including the §2 overflow semantics.
#include <gtest/gtest.h>

#include <vector>

#include "hw/snet.hpp"
#include "sim/simulator.hpp"

namespace hpcvorx::hw {
namespace {

Frame frame_to(int dst, std::uint32_t payload) {
  Frame f;
  f.dst = dst;
  f.payload_bytes = payload;
  return f;
}

TEST(Snet, DeliversCompleteMessage) {
  sim::Simulator sim;
  SnetBus bus(sim, 4);
  bool accepted = false;
  int rx = 0;
  bus.set_rx_cb(1, [&] { ++rx; });
  bus.request_send(0, frame_to(1, 100), [&](bool ok) { accepted = ok; });
  sim.run();
  EXPECT_TRUE(accepted);
  EXPECT_EQ(rx, 1);
  EXPECT_EQ(bus.fifo_used(1), 116u);  // payload + header
  auto frag = bus.fifo_take(1);
  ASSERT_TRUE(frag.has_value());
  EXPECT_TRUE(frag->complete);
  EXPECT_EQ(frag->frame.src, 0);
  EXPECT_EQ(bus.fifo_used(1), 0u);
}

TEST(Snet, BusSerializesTransfers) {
  sim::Simulator sim;
  SnetBus::Params p;
  p.ns_per_byte = 100;
  p.arbitration = 0;
  SnetBus bus(sim, 3, p);
  sim::SimTime t1 = -1, t2 = -1;
  bus.request_send(0, frame_to(2, 84), [&](bool) { t1 = sim.now(); });
  bus.request_send(1, frame_to(2, 84), [&](bool) { t2 = sim.now(); });
  sim.run();
  EXPECT_EQ(t1, 100 * 100);       // wire = 100 bytes
  EXPECT_EQ(t2, 2 * 100 * 100);   // second waits for the bus
}

TEST(Snet, TwelveProcessors150ByteMessagesFitWithoutOverflow) {
  // §2: "12 processors could each send a 150 byte message to a single
  // processor without overflowing its fifo."
  sim::Simulator sim;
  SnetBus bus(sim, 13);
  int accepted = 0;
  for (int s = 1; s <= 12; ++s) {
    bus.request_send(s, frame_to(0, 150), [&](bool ok) { accepted += ok; });
  }
  sim.run();
  EXPECT_EQ(accepted, 12);
  EXPECT_EQ(bus.overflows(), 0u);
  EXPECT_LE(bus.fifo_used(0), 2048u);
}

TEST(Snet, OverflowLeavesPartialResidueThatMustBeDrained) {
  sim::Simulator sim;
  SnetBus bus(sim, 3);
  // Fill the 2048-byte fifo with one 1024-byte message (wire 1040)...
  bool first_ok = false;
  bus.request_send(0, frame_to(2, 1024), [&](bool ok) { first_ok = ok; });
  sim.run();
  ASSERT_TRUE(first_ok);
  // ...then overflow it with another (needs 1040, only 1008 free).
  bool second_ok = true;
  bus.request_send(1, frame_to(2, 1024), [&](bool ok) { second_ok = ok; });
  sim.run();
  EXPECT_FALSE(second_ok);
  EXPECT_EQ(bus.overflows(), 1u);
  EXPECT_EQ(bus.fifo_used(2), 2048u);  // full: 1040 + 1008 residue

  // Receiver drains: first the complete message, then the residue.
  auto a = bus.fifo_take(2);
  ASSERT_TRUE(a.has_value());
  EXPECT_TRUE(a->complete);
  auto b = bus.fifo_take(2);
  ASSERT_TRUE(b.has_value());
  EXPECT_FALSE(b->complete);
  EXPECT_EQ(b->bytes, 1008u);
  EXPECT_EQ(bus.fifo_used(2), 0u);
}

TEST(Snet, TotallyFullFifoAbsorbsNothing) {
  sim::Simulator sim;
  SnetBus::Params p;
  p.fifo_bytes = 116;  // exactly one 100-byte-payload message
  SnetBus bus(sim, 3, p);
  bus.request_send(0, frame_to(2, 100), [](bool) {});
  sim.run();
  ASSERT_EQ(bus.fifo_free(2), 0u);
  bool ok = true;
  int rx = 0;
  bus.set_rx_cb(2, [&] { ++rx; });
  bus.request_send(1, frame_to(2, 100), [&](bool a) { ok = a; });
  sim.run();
  EXPECT_FALSE(ok);
  EXPECT_EQ(rx, 0);  // nothing landed, no interrupt
  EXPECT_EQ(bus.fifo_used(2), 116u);
}

TEST(Snet, DrainingFreesSpaceForLaterSends) {
  sim::Simulator sim;
  SnetBus::Params p;
  p.fifo_bytes = 300;
  SnetBus bus(sim, 2, p);
  bool ok1 = false, ok2 = false;
  bus.request_send(0, frame_to(1, 200), [&](bool ok) { ok1 = ok; });
  sim.run();
  ASSERT_TRUE(ok1);
  bus.fifo_take(1);
  bus.request_send(0, frame_to(1, 200), [&](bool ok) { ok2 = ok; });
  sim.run();
  EXPECT_TRUE(ok2);
}

TEST(Snet, StatsCountGrantsAndDeliveries) {
  sim::Simulator sim;
  SnetBus bus(sim, 4);
  for (int i = 0; i < 5; ++i) {
    bus.request_send(0, frame_to(1, 10), [](bool) {});
    sim.run();
    bus.fifo_take(1);
  }
  EXPECT_EQ(bus.bus_grants(), 5u);
  EXPECT_EQ(bus.messages_delivered(), 5u);
  EXPECT_EQ(bus.overflows(), 0u);
}

TEST(SnetDeathTest, SecondOutstandingSendFromOneProcessorAsserts) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  SnetBus bus(sim, 3);
  bus.request_send(1, frame_to(2, 10), [](bool) {});  // crossing the bus
  bus.request_send(0, frame_to(2, 10), [](bool) {});  // queued behind it
  EXPECT_DEATH(bus.request_send(1, frame_to(2, 10), [](bool) {}),
               "one outstanding S/NET send");
  EXPECT_DEATH(bus.request_send(0, frame_to(2, 10), [](bool) {}),
               "one outstanding S/NET send");
  // A completion callback may send again: its own request is finished.
  int resent = 0;
  bus.request_send(2, frame_to(1, 10), [&](bool) {
    bus.request_send(2, frame_to(1, 10), [&](bool) { ++resent; });
  });
  sim.run();
  EXPECT_EQ(resent, 1);
}

}  // namespace
}  // namespace hpcvorx::hw
