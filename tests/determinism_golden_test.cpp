// Pre-change golden determinism tests for the allocation-free hot path.
//
// The inline-event queue (timing wheel + heap spill), the frame pool, and
// the precomputed routing tables are pure mechanism changes: they must not
// move a single event in virtual time.  These tests pin that down against
// goldens captured from the tree *before* the optimization landed:
//
//   * EventOrder — a scripted torture mix of post()/push()/cancel across
//     near, far, tied, and past times, driven interleaved with pops.  The
//     exact (time, insertion-sequence) firing order is compared against
//     tests/goldens/event_order.golden.txt byte for byte.
//   * TraceExport — a multi-cluster channel-echo workload with interval and
//     counter recording; the rendered Chrome trace (virtual timestamps
//     only) is compared against tests/goldens/echo_trace.golden.json byte
//     for byte, and must also be identical across two runs in-process.
//   * AdaptiveRouting — raw adaptive fabrics (1024-station cube, 1024-
//     station fat tree with 256-port spines, and the cube again under a
//     link_flap fault plan); per-receiver sorted latency lists are digested
//     into tests/goldens/adaptive_latency.golden.txt.  Adaptive decisions
//     read live link occupancy, so this pins the switch arbiter's exact
//     visiting order, not just what it delivers.
//
// Regenerating (only legitimate after an intentional semantic change):
//   HPCVORX_WRITE_GOLDENS=1 ./build/tests/integration_tests
//       --gtest_filter='DeterminismGolden.*'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "hw/fabric.hpp"
#include "hw/traffic.hpp"
#include "sim/event_queue.hpp"
#include "sim/fault_plan.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"
#include "tools/trace_export.hpp"
#include "vorx/multicast.hpp"
#include "vorx/node.hpp"
#include "vorx/system.hpp"

namespace hpcvorx {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(GOLDEN_DIR) + "/" + name;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// When HPCVORX_WRITE_GOLDENS is set, (re)write the golden instead of
// comparing — used once, from the pre-change tree, to mint the files.
bool writing_goldens() { return std::getenv("HPCVORX_WRITE_GOLDENS") != nullptr; }

void check_against_golden(const std::string& name, const std::string& got) {
  const std::string path = golden_path(name);
  if (writing_goldens()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << got;
    return;
  }
  const std::string want = read_file(path);
  ASSERT_EQ(got.size(), want.size()) << name << " size changed";
  EXPECT_TRUE(got == want) << name << " bytes changed";
}

// ---------------------------------------------------------------------------
// Scenario 1: raw EventQueue firing order.
//
// The script exercises every region the queue implementation cares about:
// same-tick ties (times rounded to coarse multiples), near-future times, far
// future times (beyond any near-future fast-path window), times in the past
// of the current pop frontier, stamped no-op events (the Cpu slice-end
// pattern: a bumped stamp turns the fire into a no-op), and events that
// schedule further events while firing.  The pop loop records
// "<id>@<time>;" per firing; insertion order is the tiebreak the golden pins.
// ---------------------------------------------------------------------------

std::string run_event_order_scenario() {
  sim::EventQueue q;
  std::string log;
  int next_id = 0;
  sim::Rng rng(20260807);

  auto fire = [&log](int id, sim::SimTime at) {
    log += 'E';
    log += std::to_string(id);
    log += '@';
    log += std::to_string(at);
    log += ';';
  };
  auto post_one = [&](sim::SimTime at) {
    const int id = next_id++;
    q.post(at, [&fire, id, at] { fire(id, at); });
  };
  auto pop_n = [&](int n) {
    for (int i = 0; i < n && !q.empty(); ++i) {
      auto [at, fn] = q.pop();
      fn();
    }
  };

  // Phase 1: a burst of posts with heavy same-time collisions (times are
  // multiples of 128 in [0, 8K)) plus a sprinkle of far-future events.
  for (int i = 0; i < 96; ++i) post_one(static_cast<sim::SimTime>(rng.below(64)) * 128);
  for (int i = 0; i < 8; ++i) post_one(static_cast<sim::SimTime>(100000 + rng.below(8) * 500));

  // Phase 2: drain half, then insert *behind* the frontier (past times must
  // still fire, immediately, in insertion order).
  pop_n(52);
  for (int i = 0; i < 6; ++i) post_one(static_cast<sim::SimTime>(rng.below(100)));

  // Phase 3: stamped events near and far; every third one is stamped
  // stale after posting, so it pops in its slot as a no-op.
  std::vector<std::uint64_t> stamp(30, 0);
  for (std::size_t i = 0; i < stamp.size(); ++i) {
    const sim::SimTime at = static_cast<sim::SimTime>(4000 + rng.below(200000));
    const int id = next_id++;
    q.post(at, [&fire, &stamp, i, gen = stamp[i], id, at] {
      if (stamp[i] == gen) fire(id, at);
    });
  }
  for (std::size_t i = 0; i < stamp.size(); i += 3) ++stamp[i];

  // Phase 4: events that schedule more events when they fire (nested
  // insertion during pop), landing both at the current instant and later.
  for (int i = 0; i < 10; ++i) {
    const sim::SimTime at = static_cast<sim::SimTime>(9000 + i * 700);
    const int id = next_id++;
    q.post(at, [&, id, at] {
      fire(id, at);
      post_one(at);          // same instant: must fire after already-queued ties
      post_one(at + 17000);  // beyond any near-future window
    });
  }

  // Phase 5: full drain.
  while (!q.empty()) {
    auto [at, fn] = q.pop();
    fn();
    log += '\n';
  }
  return log;
}

TEST(DeterminismGolden, EventOrder) {
  const std::string got = run_event_order_scenario();
  // Run-to-run determinism within this build, independent of the golden.
  EXPECT_EQ(got, run_event_order_scenario());
  check_against_golden("event_order.golden.txt", got);
}

// ---------------------------------------------------------------------------
// Scenario 2: end-to-end trace export.
//
// Eight nodes across a multi-cluster incomplete hypercube (so frames cross
// inter-cluster links and the routing tables), channel echo traffic between
// distant node pairs, with interval + counter recording on.  The rendered
// trace contains only virtual-time data, so it is byte-stable unless event
// timing itself changes.
// ---------------------------------------------------------------------------

using vorx::Channel;
using vorx::Subprocess;

std::string run_traced_echo() {
  sim::Simulator sim;
  vorx::SystemConfig cfg;
  cfg.nodes = 8;
  cfg.stations_per_cluster = 4;  // 9 stations -> 3 clusters -> hypercube
  cfg.record_intervals = true;
  cfg.record_counters = true;
  vorx::System sys(sim, cfg);

  for (int pair = 0; pair < 4; ++pair) {
    const int a = pair;       // cluster 0/1
    const int b = 7 - pair;   // far side
    const std::string ch_name = "echo" + std::to_string(pair);
    sys.node(a).spawn_process("tx" + std::to_string(pair),
                              [&sim, ch_name](Subprocess& sp) -> sim::Task<void> {
                                Channel* ch = co_await sp.open(ch_name);
                                for (int i = 0; i < 6; ++i) {
                                  co_await sp.compute(sim::usec(3));
                                  co_await sp.write(*ch, 256);
                                  (void)co_await sp.read(*ch);
                                }
                              });
    sys.node(b).spawn_process("rx" + std::to_string(pair),
                              [ch_name](Subprocess& sp) -> sim::Task<void> {
                                Channel* ch = co_await sp.open(ch_name);
                                for (int i = 0; i < 6; ++i) {
                                  (void)co_await sp.read(*ch);
                                  co_await sp.write(*ch, 256);
                                }
                              });
  }
  sim.run();
  return tools::TraceExporter::from_system(sys).render();
}

TEST(DeterminismGolden, TraceExport) {
  const std::string got = run_traced_echo();
  // Two in-process runs must already be byte-identical...
  EXPECT_EQ(got, run_traced_echo());
  // ...and identical to the pre-change golden.
  check_against_golden("echo_trace.golden.json", got);
}

// ---------------------------------------------------------------------------
// Scenario 3: multicast + wheel counter tracks.
//
// A hardware multicast group spanning three clusters plus a compute far
// past the L0 wheel horizon, so the trace carries every counter family
// added by the observability work: per-group delivery latency and
// software-copy tracks ("mcast.g5"), in-switch replica counts
// ("mcast_copies.g5" on the cluster tracks), and the engine's wheel
// statistics ("wheel_l1_inserts", "heap_size", ...).  Same determinism
// bar as scenario 2: byte-identical across runs and against the golden.
// ---------------------------------------------------------------------------

std::string run_traced_mcast() {
  sim::Simulator sim;
  vorx::SystemConfig cfg;
  cfg.nodes = 12;
  cfg.stations_per_cluster = 4;
  cfg.record_intervals = true;
  cfg.record_counters = true;
  vorx::System sys(sim, cfg);

  std::vector<int> idx;
  for (int i = 0; i < 12; ++i) idx.push_back(i);
  auto handles =
      sys.create_multicast_group(5, idx, /*root=*/0, vorx::McastMode::kHardware);
  sys.node(0).spawn_process("root", [&](Subprocess& sp) -> sim::Task<void> {
    co_await sp.compute(sim::msec(20));  // L1/heap insert -> wheel samples
    for (int m = 0; m < 5; ++m) co_await handles[0]->write(sp, 640);
  });
  for (int i = 0; i < 12; ++i) {
    sys.node(i).spawn_process(
        "m" + std::to_string(i), [&, i](Subprocess& sp) -> sim::Task<void> {
          for (int m = 0; m < 5; ++m) {
            (void)co_await handles[static_cast<std::size_t>(i)]->read(sp);
          }
        });
  }
  sim.run();
  return tools::TraceExporter::from_system(sys).render();
}

TEST(DeterminismGolden, McastWheelTrace) {
  const std::string got = run_traced_mcast();
  EXPECT_EQ(got, run_traced_mcast());
  // The scenario must actually produce the tracks it exists to pin down.
  EXPECT_NE(got.find("\"name\":\"mcast.g5\""), std::string::npos);
  EXPECT_NE(got.find("mcast_copies.g5"), std::string::npos);
  EXPECT_NE(got.find("delivery_us."), std::string::npos);
  EXPECT_NE(got.find("\"name\":\"engine\""), std::string::npos);
  EXPECT_NE(got.find("wheel_l1_inserts"), std::string::npos);
  check_against_golden("mcast_trace.golden.json", got);
}

// ---------------------------------------------------------------------------
// Scenario 4: adaptive routing in virtual time.
//
// Adaptive heads commit to the least-queued ready egress port and are
// ripped up when their port blocks, so every latency below depends on the
// exact order in which the switches visit their inputs.  Traffic is the
// bench_net_scaling pattern (half bit-reversal partner, half uniform), 12
// frames per station.  The fault run applies a seeded link_flap plan to
// the cube mid-traffic (fault-time reroute tables, -1 routes, arbiter
// kicks).  Each line: delivered / dropped counts, the final virtual time,
// and the FNV-1a digest of every receiver's sorted latency list.
// ---------------------------------------------------------------------------

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string run_adaptive_fabric(const std::string& label,
                                hw::TopologyKind topo, bool link_flap) {
  constexpr int kStations = 1024;
  constexpr int kFrames = 12;
  sim::Simulator sim;
  hw::FabricParams params;
  params.topo = topo;
  params.routing = hw::RoutingMode::kAdaptive;
  auto fab = hw::Fabric::make(sim, kStations, 4, params);

  hw::FabricTraffic traffic(
      *fab, hw::bit_reversal_uniform(kStations, kFrames, 0xada97,
                                     /*gap_base_us=*/1, /*gap_span_us=*/20));
  traffic.start();

  if (link_flap) {
    sim::MachineShape shape;
    shape.clusters = fab->num_clusters();
    shape.cube_edges = fab->cube_edge_pairs();
    const auto plan =
        sim::FaultPlan::named("link_flap", shape, 7, sim::usec(150));
    EXPECT_FALSE(plan.empty());
    for (const sim::FaultEvent& ev : plan.events()) {
      hw::Fabric* f = fab.get();
      sim.post_at(ev.at, [f, ev] {
        f->apply_cube_fault(0, ev.a, ev.b, ev.kind == sim::FaultKind::kLinkUp);
      });
    }
  }
  sim.run();

  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (int s = 0; s < kStations; ++s) {
    std::vector<sim::Duration> l;
    for (const hw::Delivery& d : traffic.received(s)) l.push_back(d.latency());
    std::sort(l.begin(), l.end());
    std::string row = std::to_string(s) + ':';
    for (const sim::Duration d : l) row += std::to_string(d) + ',';
    h = fnv1a(h, row);
  }
  std::ostringstream out;
  out << label << " delivered=" << traffic.delivered()
      << " dropped=" << fab->frames_dropped() << " end=" << sim.now()
      << " fnv=" << std::hex << h << "\n";
  return out.str();
}

TEST(DeterminismGolden, AdaptiveRouting) {
  const std::string got =
      run_adaptive_fabric("cube.adaptive.n1024", hw::TopologyKind::kHypercube,
                          false) +
      run_adaptive_fabric("fattree.adaptive.n1024",
                          hw::TopologyKind::kFatTree, false) +
      run_adaptive_fabric("cube.adaptive.n1024.link_flap",
                          hw::TopologyKind::kHypercube, true);
  check_against_golden("adaptive_latency.golden.txt", got);
}

}  // namespace
}  // namespace hpcvorx
