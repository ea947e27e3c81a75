// Paper-scale network sweep (DESIGN.md §15): the fabric at 64 / 256 /
// 1024 / 4096 stations, on both topologies (incomplete hypercube vs the
// two-level fat tree) under both routing modes (deterministic e-cube /
// dst-hash vs congestion-aware adaptive) — the adaptive-routing ablation.
//
// §1 of the paper claims the HPC design scales past 1000 nodes; the 1024-
// station cell is exactly its 256-cluster example, and the 4096-station
// cell is the same recipe one dimension up (16-port clusters).  Every cell
// drives the identical seeded workload — a bit-reversal permutation (the
// classic worst case for dimension-ordered routing: heavy link overlap)
// mixed with uniform-random traffic — and reports *simulated* fabric
// throughput and tail latency, so cells are comparable across topologies,
// routing modes, and machine sizes.
//
// Also recorded: resident routing state at each size.  Next hops are
// computed, not tabulated, so this must grow O(clusters) — the acceptance
// gate for the paper-scale machine (net.scale_route_kb.*).
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "hw/fabric.hpp"
#include "hw/traffic.hpp"
#include "sim/simulator.hpp"

using namespace hpcvorx;

namespace {

struct Cell {
  double frames_per_s = 0;   // delivered per simulated second
  double p99_us = 0;         // injection -> delivery, 99th percentile
  std::size_t route_bytes = 0;
};

Cell run_cell(int stations, hw::TopologyKind topo, hw::RoutingMode routing,
              int frames_per_station) {
  sim::Simulator sim;
  hw::FabricParams params;
  params.topo = topo;
  params.routing = routing;
  // The 4096-node cube outgrows the 12-port cluster (10 cube dims + 4
  // station ports); the paper's recipe scales by widening the switch.
  if (topo == hw::TopologyKind::kHypercube && stations >= 4096) {
    params.ports_per_cluster = 16;
  }
  auto fab = hw::Fabric::make(sim, stations, 4, params);

  // Seeded schedule: half the frames go to the station's bit-reversal
  // partner (synchronized pattern, heavy e-cube link overlap), half to
  // uniform-random destinations.  Identical across routing modes.
  hw::FabricTraffic traffic(
      *fab, hw::bit_reversal_uniform(
                stations, frames_per_station,
                0x5ca1ab1e + static_cast<std::uint64_t>(stations),
                /*gap_base_us=*/3, /*gap_span_us=*/30));
  traffic.start();
  sim.run();

  Cell cell;
  cell.route_bytes = fab->routing_state_bytes();
  const std::uint64_t offered = static_cast<std::uint64_t>(stations) *
                                static_cast<std::uint64_t>(frames_per_station);
  const std::uint64_t sent = traffic.sent();
  const std::uint64_t delivered = traffic.delivered();
  if (sent != offered || delivered != sent || fab->frames_dropped() != 0) {
    bench::line("  !! LOSSY CELL n=%d %s/%s: offered %llu sent %llu "
                "delivered %llu dropped %llu",
                stations, hw::to_string(topo).c_str(),
                hw::to_string(routing).c_str(),
                static_cast<unsigned long long>(offered),
                static_cast<unsigned long long>(sent),
                static_cast<unsigned long long>(delivered),
                static_cast<unsigned long long>(fab->frames_dropped()));
    return cell;  // zero rows flag the failure downstream
  }
  std::vector<sim::Duration> latencies;
  latencies.reserve(delivered);
  for (int s = 0; s < stations; ++s) {
    for (const hw::Delivery& d : traffic.received(s)) {
      latencies.push_back(d.latency());
    }
  }
  std::sort(latencies.begin(), latencies.end());
  cell.p99_us = sim::to_usec(sim::nearest_rank(latencies, 99));
  const double sim_seconds = sim::to_usec(sim.now()) / 1e6;
  cell.frames_per_s =
      sim_seconds > 0 ? static_cast<double>(delivered) / sim_seconds : 0;
  return cell;
}

void run(bench::Reporter& r) {
  bench::line("network scaling sweep: stations x topology x routing,");
  bench::line("identical seeded bit-reversal + uniform traffic per cell.");
  bench::line("throughput/latency are simulated-time (engine-independent).");

  const int frames_per_station = r.iters(6, 2);
  const std::vector<int> sizes{64, 256, 1024, 4096};
  for (const int n : sizes) {
    std::size_t cube_route_bytes = 0;
    for (const hw::TopologyKind topo :
         {hw::TopologyKind::kHypercube, hw::TopologyKind::kFatTree}) {
      for (const hw::RoutingMode mode :
           {hw::RoutingMode::kEcube, hw::RoutingMode::kAdaptive}) {
        const Cell cell = run_cell(n, topo, mode, frames_per_station);
        const std::string key = "." + hw::to_string(topo) + "." +
                                hw::to_string(mode) + ".n" +
                                std::to_string(n);
        r.row("net.scale_frames_s" + key, "frames/s", cell.frames_per_s);
        r.row("net.scale_p99_us" + key, "us", cell.p99_us);
        if (topo == hw::TopologyKind::kHypercube &&
            mode == hw::RoutingMode::kEcube) {
          cube_route_bytes = cell.route_bytes;
        }
      }
    }
    // Routing state of the cube machine at this size: must track
    // O(clusters), not O(clusters²) (see the file comment).
    r.row("net.scale_route_kb.n" + std::to_string(n), "KB",
          static_cast<double>(cube_route_bytes) / 1024.0);
  }
}

HPCVORX_BENCH("net_scaling",
              "Paper-scale network sweep (topology x routing x stations)",
              "S1 \"systems of more than 1000 nodes\" (scaling claim)", run);

}  // namespace
