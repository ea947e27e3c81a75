// Tests of the kernel's receive dispatch: the kind-indexed handler table
// and delivery to user-defined communications objects.
#include <gtest/gtest.h>

#include <memory>

#include "vorx/udco.hpp"
#include "vorx_test_util.hpp"

namespace hpcvorx::vorx {
namespace {

SystemConfig two_nodes() {
  SystemConfig cfg;
  cfg.nodes = 2;
  return cfg;
}

// Sends one 64-byte frame of `kind` from node 1 to node 0.
void send_kind(System& sys, std::uint32_t kind, std::uint64_t obj = 0) {
  hw::Frame f;
  f.kind = kind;
  f.obj = obj;
  f.dst = sys.node(0).station();
  f.payload_bytes = 64;
  sys.node(1).kernel().send(std::move(f));
}

TEST(KernelDispatch, UnhandledAndOutOfRangeKindsAreDropped) {
  sim::Simulator sim;
  System sys(sim, two_nodes());
  Kernel& k = sys.node(0).kernel();
  int raw = 0;
  k.register_handler(msg::kRaw, [&raw](hw::Frame) { ++raw; });
  send_kind(sys, msg::kRaw);
  send_kind(sys, msg::kSessBye);  // in range; only a workload handles it
  send_kind(sys, msg::kNumKinds);
  send_kind(sys, 4242);
  sim.run();
  EXPECT_EQ(raw, 1);
  EXPECT_EQ(k.frames_received(), 4u);
  EXPECT_EQ(k.frames_dropped(), 3u);
}

TEST(KernelDispatch, RegisteringAgainReplacesTheHandler) {
  sim::Simulator sim;
  System sys(sim, two_nodes());
  int first = 0;
  int second = 0;
  sys.node(0).kernel().register_handler(msg::kRaw,
                                        [&first](hw::Frame) { ++first; });
  sys.node(0).kernel().register_handler(msg::kRaw,
                                        [&second](hw::Frame) { ++second; });
  send_kind(sys, msg::kRaw);
  sim.run();
  EXPECT_EQ(first, 0);
  EXPECT_EQ(second, 1);
}

TEST(KernelDispatchDeathTest, RegisteringAKindPastTheTableDies) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  sim::Simulator sim;
  System sys(sim, two_nodes());
  EXPECT_DEATH(
      sys.node(0).kernel().register_handler(msg::kNumKinds, [](hw::Frame) {}),
      "kind");
}

struct Arrival {
  sim::SimTime at = -1;
  bool to_object = false;
};

// Sends one kUdco frame to an object on node 0 and reports when, and
// where, it arrived: at the object's ISR or at the kUdco handler.  The
// object is destroyed at `close_at` (never when negative).
Arrival udco_arrival(sim::SimTime close_at) {
  sim::Simulator sim;
  System sys(sim, two_nodes());
  Node& rx = sys.node(0);
  Arrival a;
  rx.kernel().register_handler(msg::kUdco,
                               [&](hw::Frame) { a.at = sim.now(); });
  auto obj = std::make_unique<Udco>(rx.kernel(), rx.census(), 7, 8, "u",
                                    sys.node(1).station());
  obj->set_isr([&](hw::Frame) {
    a.at = sim.now();
    a.to_object = true;
  });
  if (close_at >= 0) sim.post_at(close_at, [&obj] { obj.reset(); });
  send_kind(sys, msg::kUdco, 7);
  sim.run();
  return a;
}

TEST(KernelDispatch, UdcoClosedDuringItsChargeFallsBackToTheKindHandler) {
  const Arrival open = udco_arrival(-1);
  ASSERT_TRUE(open.to_object);
  // 1 ns before its ISR would run, the frame is inside the user-ISR charge
  // the pump started for the live object.  Closed then, the object is
  // gone when the charge ends, and the frame goes to the kUdco handler at
  // the same instant.
  const Arrival closed = udco_arrival(open.at - 1);
  EXPECT_FALSE(closed.to_object);
  EXPECT_EQ(closed.at, open.at);
}

}  // namespace
}  // namespace hpcvorx::vorx
