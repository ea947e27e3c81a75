// Wall-clock scaling sweep of the sharded engine (sim/shard_runtime):
// one fixed 32-station / 8-cluster machine and workload, executed at
// --shards 1, 2, 4, and 8, reporting simulated events per wall-clock
// second at each width plus the speedups over the 1-shard run.  Each
// multi-shard cell also prints where the shards' wall time went (running
// windows, draining exchanges, waiting at the round barrier), and the
// 4-shard cell reports its round rate: the fixed per-round cost is what
// decides whether sharding pays.
//
// Like bench_engine_micro, this measures the reproduction's own engine —
// not a paper number — so it reads a real clock (permitted outside src/).
// The 1-shard row runs the same ShardRuntime entry point, which delegates
// to the sequential engine, so the sweep's baseline IS the single-threaded
// simulator.
//
// The workload is the shape sharding is built for (DESIGN.md §12): heavy
// intra-cluster channel traffic (stays inside a shard) plus light
// cross-cluster traffic over cube links whose latency is raised via
// FabricParams::cluster_link — the wider lookahead window lets every
// shard run thousands of events between barriers.  Speedup is bounded by
// the host's core count: on a single-core runner the sweep degenerates to
// measuring barrier overhead, which is itself worth tracking.
#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "sim/shard_runtime.hpp"
#include "vorx/node.hpp"
#include "vorx/system.hpp"

using namespace hpcvorx;

namespace {

using vorx::Channel;
using vorx::Subprocess;

constexpr int kNodes = 32;          // 8 clusters of 4 -> up to 8 shards
constexpr int kClusters = 8;

// One intra-cluster ping-pong pair per two stations, plus one
// cross-cluster pair per cluster (c -> c+1 ring).
void spawn_workload(vorx::System& sys, int local_roundtrips,
                    int cross_roundtrips) {
  for (int p = 0; p < kNodes / 2; ++p) {
    const int a = 2 * p, b = 2 * p + 1;  // same cluster by construction
    const std::string name = "p" + std::to_string(p);
    sys.node(a).spawn_process(
        "ping" + std::to_string(p),
        [name, local_roundtrips](Subprocess& sp) -> sim::Task<void> {
          Channel* ch = co_await sp.open(name);
          for (int i = 0; i < local_roundtrips; ++i) {
            co_await sp.compute(sim::usec(2));
            co_await sp.write(*ch, 256);
            (void)co_await sp.read(*ch);
          }
        });
    sys.node(b).spawn_process(
        "pong" + std::to_string(p),
        [name, local_roundtrips](Subprocess& sp) -> sim::Task<void> {
          Channel* ch = co_await sp.open(name);
          for (int i = 0; i < local_roundtrips; ++i) {
            (void)co_await sp.read(*ch);
            co_await sp.compute(sim::usec(1));
            co_await sp.write(*ch, 256);
          }
        });
  }
  for (int c = 0; c < kClusters; ++c) {
    const int a = 4 * c;                      // cluster c
    const int b = 4 * ((c + 1) % kClusters);  // neighbouring cluster
    const std::string name = "x" + std::to_string(c);
    sys.node(a).spawn_process(
        "xtx" + std::to_string(c),
        [name, cross_roundtrips](Subprocess& sp) -> sim::Task<void> {
          Channel* ch = co_await sp.open(name);
          for (int i = 0; i < cross_roundtrips; ++i) {
            co_await sp.compute(sim::usec(40));
            co_await sp.write(*ch, 512);
            (void)co_await sp.read(*ch);
          }
        });
    sys.node(b).spawn_process(
        "xrx" + std::to_string(c),
        [name, cross_roundtrips](Subprocess& sp) -> sim::Task<void> {
          Channel* ch = co_await sp.open(name);
          for (int i = 0; i < cross_roundtrips; ++i) {
            (void)co_await sp.read(*ch);
            co_await sp.write(*ch, 512);
          }
        });
  }
}

struct SweepPoint {
  double events_per_s = 0;
  double rounds_per_s = 0;
  std::uint64_t events = 0;
  std::uint64_t rounds = 0;
  std::vector<sim::ShardRuntime::ShardTimes> profile;
};

SweepPoint run_at(int shards, int local_roundtrips, int cross_roundtrips,
                  sim::Duration window = sim::usec(50)) {
  using clock = std::chrono::steady_clock;
  vorx::SystemConfig cfg;
  cfg.nodes = kNodes;
  cfg.hosts = 0;
  cfg.stations_per_cluster = 4;
  // Long cables between cabinets: the cube links' latency is the
  // lookahead window, so raising it (cross-cluster traffic is latency
  // tolerant here) buys thousands of intra-shard events per round.
  cfg.fabric.cluster_link = cfg.fabric.link;
  cfg.fabric.cluster_link->latency = window;

  sim::ShardRuntime rt(shards);
  vorx::System sys(rt, cfg);
  spawn_workload(sys, local_roundtrips, cross_roundtrips);
  const auto t0 = clock::now();
  rt.run();
  const double elapsed =
      std::chrono::duration<double>(clock::now() - t0).count();
  SweepPoint pt;
  pt.events = rt.total_events_executed();
  pt.rounds = rt.rounds();
  pt.events_per_s =
      elapsed > 0 ? static_cast<double>(pt.events) / elapsed : 0.0;
  pt.rounds_per_s =
      elapsed > 0 ? static_cast<double>(pt.rounds) / elapsed : 0.0;
  pt.profile = rt.round_profile();
  return pt;
}

// One line per multi-shard cell: the mean shard's wall time per round,
// split into run / drain / barrier wait, and the run-time imbalance
// (slowest shard's run time over the mean: 1.0 is perfectly balanced, and
// every shard waits at each barrier for the slowest).
void print_split(const SweepPoint& pt) {
  if (pt.rounds == 0) return;  // the 1-shard run has no rounds
  double run = 0, drain = 0, wait = 0, max_run = 0;
  for (const sim::ShardRuntime::ShardTimes& t : pt.profile) {
    run += static_cast<double>(t.run_ns);
    drain += static_cast<double>(t.drain_ns);
    wait += static_cast<double>(t.wait_ns);
    max_run = std::max(max_run, static_cast<double>(t.run_ns));
  }
  const double per_round =
      static_cast<double>(pt.profile.size()) * static_cast<double>(pt.rounds);
  const double mean_run = run / static_cast<double>(pt.profile.size());
  bench::line("    per round: run %.2f us, drain %.2f us, wait %.2f us; "
              "run imbalance max/mean %.2f",
              run / per_round / 1e3, drain / per_round / 1e3,
              wait / per_round / 1e3, mean_run > 0 ? max_run / mean_run : 0.0);
}

void run(bench::Reporter& r) {
  bench::line("sharded-engine scaling sweep: 32 stations / 8 clusters,");
  bench::line("identical workload at --shards 1/2/4/8 (higher is better).");
  bench::line("speedup is bounded by the host's core count (%u here).",
              std::thread::hardware_concurrency());

  const int local = r.iters(2000, 100);
  const int cross = r.iters(64, 8);

  double base = 0;
  for (const int shards : {1, 2, 4, 8}) {
    const SweepPoint pt = run_at(shards, local, cross);
    r.wall_rate("engine.shard_events_s_" + std::to_string(shards),
                "events/s", pt.events_per_s);
    if (shards == 1) {
      base = pt.events_per_s;
      bench::line("  (1-shard run: %llu events, no sync rounds)",
                  static_cast<unsigned long long>(pt.events));
    } else {
      // With more shards than hardware threads the speedup measures
      // oversubscription, not scaling; the row is marked core-dependent
      // so it is only compared between equally wide hosts.
      r.wall_rate("engine.shard_speedup_" + std::to_string(shards) + "x", "x",
                  base > 0 ? pt.events_per_s / base : 0.0,
                  /*depends_on_cores=*/true);
      bench::line("  (%d-shard run: %llu events over %llu sync rounds)",
                  shards, static_cast<unsigned long long>(pt.events),
                  static_cast<unsigned long long>(pt.rounds));
      print_split(pt);
      if (shards == 4) {
        r.wall_rate("engine.shard_rounds_s_4", "rounds/s", pt.rounds_per_s);
      }
    }
  }

  // Lookahead-window width sweep: the conservative window IS the
  // inter-cluster cable latency, so this is the tuning knob for how many
  // events a shard runs between barriers.  4 shards, same workload, cable
  // latency from 10 us to 200 us.  The per-SHA CI rows of this sweep are
  // what chose the 50 us default used by storm and the workload SLO bench
  // (EXPERIMENTS.md records the decision).
  bench::line("lookahead-window sweep at 4 shards (cable latency = window):");
  for (const int window_us : {10, 25, 50, 100, 200}) {
    const SweepPoint pt = run_at(4, local, cross, sim::usec(window_us));
    r.wall_rate("engine.shard_window_us_" + std::to_string(window_us) +
                    "_events_s",
                "events/s", pt.events_per_s);
    bench::line("  (window %3d us: %llu events over %llu sync rounds)",
                window_us, static_cast<unsigned long long>(pt.events),
                static_cast<unsigned long long>(pt.rounds));
    print_split(pt);
  }
}

HPCVORX_BENCH("shard_scaling",
              "Sharded-engine scaling sweep (--shards 1/2/4/8)",
              "reproduction engine (no paper artifact)", run);

}  // namespace
