// Fault-injection tests for the production-traffic workload (DESIGN.md
// §14): byte-identical replay of faulted runs across engines, and the
// directed link-down-mid-frame check (no FramePool payload leaks, no
// parked rx pump).
#include <gtest/gtest.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "sim/fault_plan.hpp"
#include "sim/shard_runtime.hpp"
#include "vorx/msg.hpp"
#include "vorx/system.hpp"
#include "vorx/workload.hpp"

namespace hpcvorx::vorx {
namespace {

// One full storm on a small machine; shards == 0 is the sequential engine.
// Returns the deterministic report rendering — the byte-compared artifact.
std::string run_storm(const std::string& plan_name, std::uint64_t seed,
                      int shards) {
  // The storm example's cabling, so the test exercises the tuned shape.
  const SystemConfig scfg = storm_machine(32, 2);

  WorkloadConfig wcfg;
  wcfg.users = 1'200;
  wcfg.horizon = sim::msec(150);

  std::unique_ptr<sim::Simulator> seq;
  std::unique_ptr<sim::ShardRuntime> rt;
  std::unique_ptr<System> sys;
  if (shards == 0) {
    seq = std::make_unique<sim::Simulator>();
    sys = std::make_unique<System>(*seq, scfg);
  } else {
    rt = std::make_unique<sim::ShardRuntime>(shards);
    sys = std::make_unique<System>(*rt, scfg);
  }

  WorkloadGen gen(*sys, wcfg, seed);
  FaultInjector inj(*sys, &gen);
  inj.install(
      sim::FaultPlan::named(plan_name, gen.machine_shape(), seed, wcfg.horizon));
  gen.run();

  const WorkloadReport r = gen.report();
  EXPECT_TRUE(r.all_accounted())
      << plan_name << " seed " << seed << " shards " << shards << ": lost="
      << r.lost << " completed=" << r.completed << " failed="
      << r.failed_joins << " of " << r.sessions_total;
  EXPECT_GT(r.sessions_total, 0u);
  return r.to_text();
}

TEST(WorkloadFault, FaultedReplayIsByteIdenticalAcrossRunsAndEngines) {
  // Randomized differential: for each fault plan and a couple of seeds,
  // the same (seed, plan) must reproduce byte-for-byte — twice on the
  // sequential engine, and again on the 1-shard runtime (R6: --shards 1
  // is byte-identical to sequential).
  for (const char* plan : {"link_flap", "cluster_restart", "stub_crash"}) {
    for (std::uint64_t seed : {std::uint64_t{3}, std::uint64_t{11}}) {
      const std::string first = run_storm(plan, seed, 0);
      const std::string again = run_storm(plan, seed, 0);
      EXPECT_EQ(first, again) << plan << " seed " << seed
                              << ": sequential replay diverged";
      const std::string sharded = run_storm(plan, seed, 1);
      EXPECT_EQ(first, sharded)
          << plan << " seed " << seed << ": --shards 1 != sequential";
    }
  }
}

TEST(WorkloadFault, DistinctSeedsProduceDistinctRuns) {
  // Sanity check on the differential above: if the workload ignored the
  // seed, byte-equality would be vacuous.
  EXPECT_NE(run_storm("link_flap", 3, 0), run_storm("link_flap", 11, 0));
}

TEST(WorkloadFault, LinkDownMidFrameLeaksNoPayloadsAndRxPumpSurvives) {
  // Directed fault: pooled payload frames stream across the one cube cable
  // of a 2-cluster machine; the cable goes down mid-stream, comes back,
  // and a late probe frame follows.  Every payload the fabric dropped must
  // be recycled back to the sender's pool (payloads_live() == 0 once the
  // run drains), and the receiver's rx pump must still deliver the
  // post-recovery probe (a parked pump would eat it silently).
  sim::Simulator sim;
  SystemConfig cfg;
  cfg.nodes = 16;
  // 17 stations at 8 per cluster: a 3-cluster star whose edges are (0,1)
  // and (0,2) — cable (0,1) is cluster 1's only attachment, so downing it
  // cannot be rerouted around.
  cfg.stations_per_cluster = 8;
  System sys(sim, cfg);

  std::vector<std::uint64_t> got;
  sys.node(8).kernel().register_handler(
      msg::kRaw, [&](hw::Frame f) { got.push_back(f.seq); });

  hw::FramePool& pool = sys.node(0).frame_pool();
  auto send_one = [&](std::uint64_t seq) {
    hw::Frame f;
    f.dst = sys.node_station(8);
    f.kind = msg::kRaw;
    f.seq = seq;
    f.payload_bytes = 64;
    f.data = pool.make(std::vector<std::byte>(64, std::byte{0x5a}));
    sys.node(0).kernel().send(std::move(f));
  };

  for (int i = 0; i < 20; ++i) {
    sim.post_at(sim::usec(10) * i,
                [&, i] { send_one(static_cast<std::uint64_t>(i)); });
  }
  sim.post_at(sim::usec(55),
              [&] { sys.fabric().apply_cube_fault(0, 0, 1, /*up=*/false); });
  sim.post_at(sim::usec(150),
              [&] { sys.fabric().apply_cube_fault(0, 0, 1, /*up=*/true); });
  sim.post_at(sim::usec(400), [&] { send_one(999); });
  sim.run();

  EXPECT_GE(got.size(), 3u);   // the pre-fault stream got through
  EXPECT_LT(got.size(), 21u);  // the downed cable really dropped frames
  ASSERT_FALSE(got.empty());
  EXPECT_EQ(got.back(), 999u);  // post-recovery probe delivered: pump alive
  EXPECT_GT(sys.fabric().frames_dropped(), 0u);
  EXPECT_GT(pool.peak_payloads_live(), 0u);
  EXPECT_EQ(pool.payloads_live(), 0u);  // nothing leaked at the fault
}

}  // namespace
}  // namespace hpcvorx::vorx
