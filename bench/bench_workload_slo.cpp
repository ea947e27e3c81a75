// Service-level objectives under production traffic (DESIGN.md §14).
//
// Runs the Rapport-shaped open-loop workload (vorx::WorkloadGen) on a
// 64-node / 2-host machine and reports the slo.* rows the CI bench gate
// requires: join-latency percentiles, media-delivery p99, failed-join
// rate, and the concurrent-session peak — first on a healthy machine,
// then with the link_flap fault plan injected, so the recovery cost is a
// tracked number rather than an anecdote.
//
// Every metric here is *virtual* time derived from a fixed seed: rows are
// identical run to run and across hosts, so the per-SHA bench-trajectory
// artifact shows genuine regressions, not runner noise.
#include <memory>
#include <string>

#include "bench_util.hpp"
#include "sim/fault_plan.hpp"
#include "vorx/system.hpp"
#include "vorx/workload.hpp"

using namespace hpcvorx;

namespace {

constexpr std::uint64_t kSeed = 42;

struct Cell {
  vorx::WorkloadReport r;
  std::uint64_t sessions = 0;
};

Cell run_cell(int users, const std::string& plan_name) {
  vorx::SystemConfig scfg = vorx::storm_machine(64, 2);
  scfg.stations_per_cluster = 8;

  vorx::WorkloadConfig wcfg;
  wcfg.users = users;

  sim::Simulator sim;
  vorx::System sys(sim, scfg);
  vorx::WorkloadGen gen(sys, wcfg, kSeed);
  vorx::FaultInjector inj(sys, &gen);
  inj.install(sim::FaultPlan::named(plan_name, gen.machine_shape(), kSeed,
                                    wcfg.horizon));
  gen.run();
  Cell c;
  c.r = gen.report();
  c.sessions = gen.sessions_generated();
  return c;
}

void run(bench::Reporter& r) {
  bench::line("open-loop conferencing workload, 64 nodes / 2 hosts;");
  bench::line("slo.* rows are virtual-time service-level metrics (lower is");
  bench::line("better except sessions_active_peak).");

  const int users = r.iters(20'000, 3'000);

  const Cell healthy = run_cell(users, "none");
  bench::line("  healthy: %llu sessions, %llu completed, %llu failed",
              static_cast<unsigned long long>(healthy.sessions),
              static_cast<unsigned long long>(healthy.r.completed),
              static_cast<unsigned long long>(healthy.r.failed_joins));
  r.row("slo.join_p50_us", "us",
        static_cast<double>(healthy.r.join_p50_us));
  r.row("slo.join_p99_us", "us",
        static_cast<double>(healthy.r.join_p99_us));
  r.row("slo.delivery_p99_us", "us",
        static_cast<double>(healthy.r.delivery_p99_us));
  r.row("slo.failed_joins_per_s", "/s",
        static_cast<double>(healthy.r.failed_joins_per_s_milli) / 1000.0);
  r.row("slo.sessions_active_peak", "sessions",
        static_cast<double>(healthy.r.sessions_active_peak));

  const Cell flap = run_cell(users, "link_flap");
  bench::line("  link_flap: %llu completed, %llu failed, %llu frames "
              "dropped at faults",
              static_cast<unsigned long long>(flap.r.completed),
              static_cast<unsigned long long>(flap.r.failed_joins),
              static_cast<unsigned long long>(flap.r.fabric_frames_dropped));
  r.row("slo.join_p99_us_linkflap", "us",
        static_cast<double>(flap.r.join_p99_us));
  r.row("slo.delivery_p99_us_linkflap", "us",
        static_cast<double>(flap.r.delivery_p99_us));
  r.row("slo.failed_joins_per_s_linkflap", "/s",
        static_cast<double>(flap.r.failed_joins_per_s_milli) / 1000.0);
}

HPCVORX_BENCH("workload_slo",
              "SLOs under production traffic, healthy vs link_flap",
              "reproduction engine (no paper artifact)", run);

}  // namespace
