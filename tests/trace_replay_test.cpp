// Tests for tools::TraceReplay: a saved Perfetto trace re-renders
// offline into the same synchronized waveform the live Oscilloscope
// produces, the counter tracks survive the round trip, and unreadable
// input degrades to ok() == false instead of crashing.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "tools/oscilloscope.hpp"
#include "tools/trace_export.hpp"
#include "tools/trace_replay.hpp"
#include "vorx/multicast.hpp"
#include "vorx/node.hpp"
#include "vorx/system.hpp"

namespace hpcvorx::tools {
namespace {

using vorx::McastMode;
using vorx::Subprocess;

// A traced workload that exercises every counter family the replay tool
// must carry: hardware multicast (per-group tracks + in-switch copies),
// a long compute (timer past the L0 wheel span -> "engine" wheel
// samples), and ordinary channel traffic (kernel/link/cluster tracks).
struct TracedRun {
  sim::Simulator sim;
  std::unique_ptr<vorx::System> sys;
  std::string json;

  TracedRun() {
    vorx::SystemConfig cfg;
    cfg.nodes = 12;
    cfg.stations_per_cluster = 4;
    cfg.record_intervals = true;
    cfg.record_counters = true;
    sys = std::make_unique<vorx::System>(sim, cfg);
    std::vector<int> idx;
    for (int i = 0; i < 12; ++i) idx.push_back(i);
    auto handles = sys->create_multicast_group(7, idx, 0, McastMode::kHardware);
    sys->node(0).spawn_process("root", [&](Subprocess& sp) -> sim::Task<void> {
      // Far past the L0 wheel horizon: forces an L1 (or heap) insert, so
      // the simulator samples the "engine" wheel-stats track.
      co_await sp.compute(sim::msec(20));
      for (int m = 0; m < 4; ++m) co_await handles[0]->write(sp, 512);
    });
    for (int i = 0; i < 12; ++i) {
      sys->node(i).spawn_process(
          "m" + std::to_string(i), [&, i](Subprocess& sp) -> sim::Task<void> {
            for (int m = 0; m < 4; ++m) {
              (void)co_await handles[static_cast<std::size_t>(i)]->read(sp);
            }
          });
    }
    sim.run();
    json = TraceExporter::from_system(*sys).render();
  }
};

TracedRun& shared_run() {
  static TracedRun run;  // the workload is deterministic; build it once
  return run;
}

TEST(TraceReplay, RoundTripRenderMatchesLiveOscilloscope) {
  TracedRun& run = shared_run();
  const TraceReplay rep = TraceReplay::parse(run.json);
  ASSERT_TRUE(rep.ok());

  const Oscilloscope osc(*run.sys);
  const sim::SimTime t1 = run.sim.now();
  ASSERT_GT(t1, 0);
  // Same stations, same names, and — because both paths feed the shared
  // render_interval_timeline — the identical glyph timeline, at several
  // zoom levels (the freeze/zoom/seek capability, §6.2).
  ASSERT_EQ(rep.stations(), run.sys->num_nodes() + run.sys->num_hosts());
  for (int s = 0; s < rep.stations(); ++s) {
    EXPECT_EQ(rep.station_name(s), run.sys->station(s).cpu().name())
        << "station " << s;
  }
  // The live view is the same timeline plus its trailing legend line.
  const auto live = [&osc](sim::SimTime a, sim::SimTime z, int cols) {
    const std::string out = osc.render(a, z, cols);
    return out.substr(0, out.rfind("legend: "));
  };
  EXPECT_EQ(rep.render(0, t1, 72), live(0, t1, 72));
  EXPECT_EQ(rep.render(0, t1, 31), live(0, t1, 31));
  EXPECT_EQ(rep.render(t1 / 3, (2 * t1) / 3, 48),
            live(t1 / 3, (2 * t1) / 3, 48));
  EXPECT_GE(rep.end_time(), t1 / 2);
}

TEST(TraceReplay, CounterTracksSurviveTheRoundTrip) {
  const TraceReplay rep = TraceReplay::parse(shared_run().json);
  ASSERT_TRUE(rep.ok());
  bool group_delivery = false, switch_copies = false, wheel = false;
  for (const auto& c : rep.counters()) {
    if (c.track == "mcast.g7" && c.counter.rfind("delivery_us.", 0) == 0) {
      group_delivery = true;
      EXPECT_GT(c.samples, 0u);
      EXPECT_GT(c.max, 0.0);
    }
    if (c.counter == "mcast_copies.g7") {
      switch_copies = true;
      EXPECT_GT(c.last, 0.0);
    }
    if (c.track == "engine" && c.counter == "wheel_l1_inserts") {
      wheel = true;
      EXPECT_GE(c.last, 1.0);
    }
  }
  EXPECT_TRUE(group_delivery);
  EXPECT_TRUE(switch_copies);
  EXPECT_TRUE(wheel);
  const std::string summary = rep.counter_summary();
  EXPECT_NE(summary.find("delivery_us."), std::string::npos);
  EXPECT_NE(summary.find("wheel_l1_inserts"), std::string::npos);
}

TEST(TraceReplay, CounterOnlyTraceReportsEndTime) {
  // A trace carrying counter samples but no intervals (record_counters on,
  // record_intervals off) must still report when it ends, so
  // render(0, end_time(), cols) spans the sampled window.
  const std::string json =
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1048576,\"tid\":0,"
      "\"args\":{\"name\":\"engine\"}},\n"
      "{\"name\":\"wheel_l1_inserts\",\"ph\":\"C\",\"pid\":1048576,"
      "\"ts\":12.345,\"args\":{\"wheel_l1_inserts\":3}},\n"
      "{\"name\":\"wheel_l1_inserts\",\"ph\":\"C\",\"pid\":1048576,"
      "\"ts\":40.250,\"args\":{\"wheel_l1_inserts\":7}}\n"
      "]}";
  const TraceReplay rep = TraceReplay::parse(json);
  ASSERT_TRUE(rep.ok());
  EXPECT_EQ(rep.end_time(), sim::usec(40) + 250);
  ASSERT_EQ(rep.counters().size(), 1u);
  EXPECT_EQ(rep.counters()[0].samples, 2u);
  EXPECT_EQ(rep.counters()[0].last, 7.0);
  EXPECT_EQ(rep.counters()[0].max, 7.0);
}

TEST(TraceReplay, CounterDiffAlignsSeriesAcrossTraces) {
  // Two traces of "the same" workload: one series in both (with different
  // values), one series on each side only.
  const std::string a =
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1048576,\"tid\":0,"
      "\"args\":{\"name\":\"mcast.g7\"}},\n"
      "{\"name\":\"delivery_us.m1\",\"ph\":\"C\",\"pid\":1048576,"
      "\"ts\":2.000,\"args\":{\"delivery_us.m1\":40}},\n"
      "{\"name\":\"sw_copies.m1\",\"ph\":\"C\",\"pid\":1048576,"
      "\"ts\":1.000,\"args\":{\"sw_copies.m1\":11}}\n"
      "]}";
  const std::string b =
      "{\"traceEvents\":[\n"
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1048576,\"tid\":0,"
      "\"args\":{\"name\":\"mcast.g7\"}},\n"
      "{\"name\":\"delivery_us.m1\",\"ph\":\"C\",\"pid\":1048576,"
      "\"ts\":2.000,\"args\":{\"delivery_us.m1\":9}},\n"
      "{\"name\":\"mcast_copies.g7\",\"ph\":\"C\",\"pid\":1048576,"
      "\"ts\":1.000,\"args\":{\"mcast_copies.g7\":3}}\n"
      "]}";
  const TraceReplay ra = TraceReplay::parse(a);
  const TraceReplay rb = TraceReplay::parse(b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  const std::string diff = TraceReplay::counter_diff(ra, rb, "sw", "hw");
  // Column headers carry the labels.
  EXPECT_NE(diff.find("sw:last"), std::string::npos);
  EXPECT_NE(diff.find("hw:max"), std::string::npos);
  // The shared series shows both sides' values on one row.
  const std::size_t shared = diff.find("delivery_us.m1");
  ASSERT_NE(shared, std::string::npos);
  const std::string shared_row =
      diff.substr(shared, diff.find('\n', shared) - shared);
  EXPECT_NE(shared_row.find("40.000"), std::string::npos);
  EXPECT_NE(shared_row.find("9.000"), std::string::npos);
  // One-sided series get a '-' cell and a side marker.
  EXPECT_NE(diff.find("sw_copies.m1"), std::string::npos);
  EXPECT_NE(diff.find("[sw only]"), std::string::npos);
  EXPECT_NE(diff.find("mcast_copies.g7"), std::string::npos);
  EXPECT_NE(diff.find("[hw only]"), std::string::npos);
  EXPECT_NE(diff.find("             -"), std::string::npos);
}

TEST(TraceReplay, CounterDiffOfATraceWithItselfHasNoMarkers) {
  const TraceReplay rep = TraceReplay::parse(shared_run().json);
  ASSERT_TRUE(rep.ok());
  const std::string diff = TraceReplay::counter_diff(rep, rep, "A", "B");
  EXPECT_EQ(diff.find("only]"), std::string::npos);
  // Every series appears exactly once: header + one row per series.
  std::size_t lines = 0;
  for (char c : diff) lines += (c == '\n') ? 1u : 0u;
  EXPECT_EQ(lines, rep.counters().size() + 1);
}

TEST(TraceReplay, UnreadableInputIsNotOk) {
  EXPECT_FALSE(TraceReplay::load("/nonexistent/никогда.trace.json").ok());
  EXPECT_FALSE(TraceReplay::parse("").ok());
  EXPECT_FALSE(TraceReplay::parse("{\"traceEvents\":[\n]}").ok());
}

TEST(TraceReplay, SkipsUnrecognizedLinesInsteadOfFailing) {
  // Truncate the trace mid-file and splice in garbage: the parser keeps
  // whatever events it can still read.
  std::string json = shared_run().json;
  json.insert(json.size() / 2, "\nthis is not a trace event line\n");
  const TraceReplay rep = TraceReplay::parse(json);
  EXPECT_TRUE(rep.ok());
  EXPECT_GT(rep.stations(), 0);
}

}  // namespace
}  // namespace hpcvorx::tools
