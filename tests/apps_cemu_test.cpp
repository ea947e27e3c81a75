// Tests for the logic-simulation kernel and the distributed CEMU app.
#include <gtest/gtest.h>

#include <ostream>

#include "apps/cemu_app.hpp"
#include "apps/logic.hpp"

namespace hpcvorx::apps {

// ctest names each CemuTransports case by this instead of the enum's raw
// bytes.  gtest finds it by argument-dependent lookup, so it lives in the
// enum's namespace.
void PrintTo(CemuTransport t, std::ostream* os) {
  *os << (t == CemuTransport::kChannels ? "channels" : "sliding_window");
}

namespace {

TEST(Logic, GateEvaluationTruthTables) {
  // A two-gate hand-built circuit check via the public evaluator.
  Circuit c = Circuit::random(1, 8, 2, 2, 5);
  std::vector<bool> values(8, false);
  std::vector<bool> latched(8, false);
  // Exercise every gate type through eval_gate by direct construction is
  // impractical with the random generator; instead verify determinism and
  // the DFF/combinational split invariants.
  int dffs = 0;
  for (int g = 0; g < c.num_gates(); ++g) {
    if (c.is_dff(g)) {
      ++dffs;
      // DFF D-inputs are block-local combinational signals.
      const Gate& gate = c.gates()[static_cast<std::size_t>(g)];
      ASSERT_GE(gate.a, 0);
      EXPECT_EQ(c.block_of(gate.a), c.block_of(g));
      EXPECT_FALSE(c.is_dff(gate.a));
    } else {
      const bool v = c.eval_gate(g, values, latched, 0);
      EXPECT_EQ(v, c.eval_gate(g, values, latched, 0));  // deterministic
    }
  }
  EXPECT_EQ(dffs, 2);
}

TEST(Logic, CombinationalReadsAreTopologicallyValid) {
  const Circuit c = Circuit::random(4, 40, 8, 6, 7);
  for (int g = 0; g < c.num_gates(); ++g) {
    if (c.is_dff(g)) continue;
    const Gate& gate = c.gates()[static_cast<std::size_t>(g)];
    for (SignalRef ref : {gate.a, gate.b}) {
      if (ref < 0) continue;           // primary input
      if (c.is_dff(ref)) continue;     // latched plane: any block
      EXPECT_EQ(c.block_of(ref), c.block_of(g));
      EXPECT_LT(ref, g);  // strictly earlier in evaluation order
    }
  }
}

TEST(Logic, BoundarySetsContainOnlyOwnersDffs) {
  const Circuit c = Circuit::random(4, 40, 8, 6, 9);
  for (int i = 0; i < 4; ++i) {
    for (int j = 0; j < 4; ++j) {
      for (int id : c.boundary(i, j)) {
        EXPECT_TRUE(c.is_dff(id));
        EXPECT_EQ(c.block_of(id), i);
      }
    }
  }
  EXPECT_TRUE(c.boundary(2, 2).empty());
}

TEST(Logic, SerialSimulationIsDeterministicAndInputSensitive) {
  const Circuit c = Circuit::random(3, 30, 6, 4, 11);
  EXPECT_EQ(c.simulate_serial(50), c.simulate_serial(50));
  EXPECT_NE(c.simulate_serial(50), c.simulate_serial(51));
  const Circuit c2 = Circuit::random(3, 30, 6, 4, 12);
  EXPECT_NE(c.simulate_serial(50), c2.simulate_serial(50));
}

class CemuTransports : public ::testing::TestWithParam<CemuTransport> {};

TEST_P(CemuTransports, DistributedTraceMatchesSerial) {
  sim::Simulator sim;
  vorx::SystemConfig scfg;
  scfg.nodes = 4;
  vorx::System sys(sim, scfg);
  CemuConfig cfg;
  cfg.cycles = 100;
  cfg.transport = GetParam();
  const CemuResult res = run_cemu(sim, sys, cfg);
  EXPECT_TRUE(res.matches_serial);
  EXPECT_GT(res.boundary_messages, 0u);
  EXPECT_GT(res.cycles_per_sec, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Both, CemuTransports,
                         ::testing::Values(CemuTransport::kChannels,
                                           CemuTransport::kSlidingWindow));

TEST(Cemu, SlidingWindowBeatsChannels) {
  // The §4.1 CEMU finding, reproduced on the full application.
  auto run = [](CemuTransport t) {
    sim::Simulator sim;
    vorx::SystemConfig scfg;
    scfg.nodes = 4;
    vorx::System sys(sim, scfg);
    CemuConfig cfg;
    cfg.cycles = 150;
    cfg.transport = t;
    return run_cemu(sim, sys, cfg);
  };
  const CemuResult chan = run(CemuTransport::kChannels);
  const CemuResult swp = run(CemuTransport::kSlidingWindow);
  ASSERT_TRUE(chan.matches_serial);
  ASSERT_TRUE(swp.matches_serial);
  EXPECT_EQ(chan.trace, swp.trace);
  EXPECT_GT(swp.cycles_per_sec, chan.cycles_per_sec);
}

TEST(Cemu, MoreBlocksStillVerify) {
  sim::Simulator sim;
  vorx::SystemConfig scfg;
  scfg.nodes = 8;
  scfg.stations_per_cluster = 4;
  vorx::System sys(sim, scfg);
  CemuConfig cfg;
  cfg.blocks = 8;
  cfg.cycles = 60;
  const CemuResult res = run_cemu(sim, sys, cfg);
  EXPECT_TRUE(res.matches_serial);
}

}  // namespace
}  // namespace hpcvorx::apps
