// Tests for oscilloscope recordings (trace export, replay, offline render)
// and the fixed-priority S/NET arbitration starvation mode.
#include <gtest/gtest.h>

#include <memory>

#include "tools/oscilloscope.hpp"
#include "tools/trace_export.hpp"
#include "tools/trace_replay.hpp"
#include "vorx/protocols/snet_recovery.hpp"
#include "vorx_test_util.hpp"

namespace hpcvorx::tools {
namespace {

using vorx::Subprocess;
using vorx::System;
using vorx::SystemConfig;

// The saved recording is the exported trace: export it, replay it, and
// the stations, their intervals and the timeline come back exactly.
TraceReplay save_and_parse(System& sys) {
  return TraceReplay::parse(TraceExporter::from_system(sys).render());
}

TEST(OscilloscopeRecording, SaveParseRenderMatchesLiveTool) {
  sim::Simulator sim;
  SystemConfig cfg;
  cfg.record_intervals = true;
  System sys(sim, cfg);
  sys.node(0).spawn_process("a", [&](Subprocess& sp) -> sim::Task<void> {
    vorx::Channel* ch = co_await sp.open("rec");
    for (int i = 0; i < 4; ++i) {
      co_await sp.compute(sim::msec(1));
      co_await sp.write(*ch, 128);
    }
  });
  sys.node(1).spawn_process("b", [&](Subprocess& sp) -> sim::Task<void> {
    vorx::Channel* ch = co_await sp.open("rec");
    for (int i = 0; i < 4; ++i) (void)co_await sp.read(*ch);
  });
  sim.run();
  sys.finalize_accounting();

  Oscilloscope osc(sys);
  const std::string live = osc.render(0, sim.now(), 32);

  // Round-trip through the exported trace.
  const TraceReplay rec = save_and_parse(sys);
  ASSERT_TRUE(rec.ok());
  ASSERT_EQ(rec.stations(), 5);  // 4 nodes + 1 workstation
  EXPECT_EQ(rec.station_name(0), "n0");
  EXPECT_EQ(rec.station_name(4), "ws0");
  EXPECT_EQ(rec.end_time(), sim.now());

  const std::string offline = rec.render(0, rec.end_time(), 32);
  // The offline rendering is the live one without its trailing legend.
  EXPECT_EQ(live, offline +
                      "legend: U user, S system, i idle-input, o idle-output, "
                      "m idle-mixed, . idle-other\n");
}

TEST(OscilloscopeRecording, IntervalsSurviveExactly) {
  sim::Simulator sim;
  SystemConfig cfg;
  cfg.nodes = 1;
  cfg.hosts = 0;
  cfg.record_intervals = true;
  System sys(sim, cfg);
  sys.node(0).spawn_process("w", [&](Subprocess& sp) -> sim::Task<void> {
    co_await sp.compute(sim::usec(123));
    co_await sp.sleep(sim::usec(456));
    co_await sp.compute(sim::usec(789));
  });
  sim.run();
  sys.finalize_accounting();
  const TraceReplay rec = save_and_parse(sys);
  ASSERT_EQ(rec.stations(), 1);
  const auto& live = sys.node(0).cpu().ledger().intervals();
  const auto& loaded = rec.intervals(0);
  ASSERT_EQ(loaded.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(loaded[i].start, live[i].start);
    EXPECT_EQ(loaded[i].end, live[i].end);
    EXPECT_EQ(loaded[i].category, live[i].category);
  }
}

}  // namespace
}  // namespace hpcvorx::tools

namespace hpcvorx::vorx {
namespace {

TEST(SnetPriorityArbitration, HighIdSendersStarveUnderBusyRetry) {
  // With fixed-priority grants (as era backplanes arbitrated), busy
  // retransmission starves the low-priority (high-id) senders completely:
  // the literal §2 "some of the messages were never received".
  hw::SnetParams params;
  params.fixed_priority_arbitration = true;
  sim::Simulator sim;
  hw::SnetBus bus(sim, 5, params);
  std::vector<std::unique_ptr<SnetStation>> st;
  for (int i = 0; i < 5; ++i) {
    st.push_back(std::make_unique<SnetStation>(sim, bus, i,
                                               default_cost_model(), 50 + i));
  }
  std::vector<int> completed(5, 0);
  for (int s = 1; s <= 4; ++s) {
    [](SnetStation* tx, int* done, sim::Simulator* simp) -> sim::Proc {
      for (int i = 0; i < 1000; ++i) {
        if (simp->now() > sim::msec(300)) co_return;
        (void)co_await tx->send(0, 700, SnetPolicy::kBusyRetry);
        ++*done;
      }
    }(st[static_cast<std::size_t>(s)].get(),
      &completed[static_cast<std::size_t>(s)], &sim);
  }
  [](SnetStation* rx) -> sim::Proc {
    for (;;) (void)co_await rx->recv();
  }(st[0].get());
  sim.run_until(sim::msec(300));

  // The livelock throttles everyone (the winner's own residues keep the
  // fifo full), but what progress exists goes to the highest-priority
  // sender; the low-priority ones are locked out entirely.
  EXPECT_GT(completed[1], 0);
  EXPECT_EQ(completed[3], 0) << "sender 3 should be locked out entirely";
  EXPECT_EQ(completed[4], 0) << "sender 4 should be locked out entirely";
}

}  // namespace
}  // namespace hpcvorx::vorx
