// Production traffic for the machine: vorx::WorkloadGen.
//
// The paper's flagship application is Rapport, a multimedia conferencing
// system "running on top of VORX" — many concurrent conferences, each a
// small group of users exchanging talk spurts, arriving and leaving all
// day long.  WorkloadGen is an *open-loop* driver for that shape of
// traffic: conference sessions arrive as a Poisson process whose rate
// follows a diurnal curve, each session allocates a host slot (§3.1's
// "not available to anyone else until explicitly freed" contract), invites
// its member nodes, exchanges heavy-tailed (Pareto) talk spurts, suffers
// member churn, and tears down.  Nothing in the driver waits for the
// machine: session start times are a function of the seed alone, so the
// offered load is identical whatever the machine does with it — exactly
// what an SLO measurement needs.
//
// Everything stochastic comes from one linear sim::Rng stream, drawn
// lazily as the run reaches each session, so the generator holds state
// for live sessions only; in-sim behaviour is a deterministic function of
// that stream plus frame arrivals.  Agents
// interact across nodes ONLY through kernel frames (msg::kSess*,
// msg::kAlloc*), so the same workload runs unchanged on the sequential
// engine and on a sharded ShardRuntime (R6/R7): byte for byte at 1 shard,
// and deterministic at each shard count (DESIGN.md §12.4).
//
// Fault injection rides alongside: a sim::FaultPlan (pure data) is bound
// to the machine by FaultInjector, which pre-schedules hw::Link down/up,
// hw::Cluster restart, and host-agent crash/restart on the owning shards'
// event queues at fixed virtual times.  Replay from the same seed and plan
// is byte-identical.  See DESIGN.md §14 for the model, the fault taxonomy,
// the recovery contracts, and the slo.* metric definitions.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/fault_plan.hpp"
#include "sim/random.hpp"
#include "sim/time.hpp"
#include "vorx/system.hpp"

namespace hpcvorx::vorx {

// What varies between workload runs.  The rest of the traffic shape —
// conference sizes, talk-spurt law, churn, the control-plane budgets — is
// fixed in workload.cpp and listed in DESIGN.md §14.1.
struct WorkloadConfig {
  int users = 10'000;                      // simulated conference users
  sim::Duration horizon = sim::msec(500);  // arrival window (one "day")
};

/// The machine the storm workload runs on: `nodes` processing nodes and
/// `hosts` workstations, 4 stations per cluster (the cube dims stay within
/// the 12-port budget at 256-1024 stations) and 50 µs trunk cables with
/// 64 frame slots.  50 µs is the lookahead window the bench_shard_scaling
/// sweep tuned (EXPERIMENTS.md); a cable that long needs buffers sized to
/// its bandwidth-delay product: at ~0.8 µs per header frame it holds ~64
/// frames, and with the default 2 slots every trunk runs stop-and-wait
/// (~20k frames/s) and the host-cluster convergecast collapses.
[[nodiscard]] inline SystemConfig storm_machine(int nodes, int hosts) {
  SystemConfig scfg;
  scfg.nodes = nodes;
  scfg.hosts = hosts;
  scfg.stations_per_cluster = 4;
  scfg.fabric.cluster_link = scfg.fabric.link;
  scfg.fabric.cluster_link->latency = sim::usec(50);
  scfg.fabric.cluster_link->buffer_frames = 64;
  return scfg;
}

/// Virtual-time summary of one workload run.  Every field is integral and
/// derived only from virtual time and the seed, so two runs of the same
/// configuration produce identical reports — the fault-matrix CI job and
/// the storm example diff `to_text()` byte for byte.
struct WorkloadReport {
  // Session accounting.  The invariant the CI gate asserts:
  //   completed + failed_joins + lost == sessions_total, and lost == 0.
  // "Lost" means the root watchdog found a session that neither completed
  // nor reported failure — an unreported loss, i.e. a bug in a recovery
  // path, never an acceptable outcome of a fault.
  std::uint64_t sessions_total = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed_joins = 0;
  std::uint64_t lost = 0;

  // Control-plane detail.
  std::uint64_t alloc_attempts = 0;
  std::uint64_t alloc_denied = 0;
  std::uint64_t alloc_timeouts = 0;
  std::uint64_t late_grants_freed = 0;
  std::uint64_t invites_sent = 0;
  std::uint64_t reinvite_rounds = 0;
  std::uint64_t members_joined = 0;
  std::uint64_t members_pruned = 0;
  std::uint64_t churn_leaves = 0;
  std::uint64_t member_gc = 0;      // member-side watchdog cleanups
  std::uint64_t stubs_granted = 0;
  std::uint64_t stubs_killed = 0;   // by host crashes

  // Data plane.
  std::uint64_t data_frames_sent = 0;
  std::uint64_t data_frames_delivered = 0;
  std::uint64_t fabric_frames_dropped = 0;  // at downed links / no-route

  // SLO metrics (microseconds of *virtual* time; -1 when no samples).
  std::int64_t join_p50_us = -1;
  std::int64_t join_p99_us = -1;
  std::int64_t delivery_p50_us = -1;
  std::int64_t delivery_p99_us = -1;
  std::uint64_t sessions_active_peak = 0;
  std::uint64_t failed_joins_per_s_milli = 0;  // fixed-point: 1/1000 per s
  std::int64_t horizon_us = 0;

  /// True when every generated session is accounted for and none was lost.
  [[nodiscard]] bool all_accounted() const {
    return lost == 0 && completed + failed_joins == sessions_total;
  }

  /// Deterministic key=value text rendering (sorted lines, integers only)
  /// — the byte-compared replay artifact.
  [[nodiscard]] std::string to_text() const;
};

/// A latency sample as WorkloadGen stores it: whole microseconds, rounded
/// down, in 32 bits.  Rounding down never reorders two samples, so the
/// nearest-rank percentile of the stored samples is exactly the
/// microseconds of the nanosecond percentile (DESIGN.md §14.1).
[[nodiscard]] std::uint32_t latency_us(sim::Duration ns);

/// sim::nearest_rank of `samples` (latency_us values), found by selection
/// rather than a full sort; reorders `samples`.  -1 when empty.
[[nodiscard]] std::int64_t percentile_us(std::span<std::uint32_t> samples,
                                         int pct);

/// Latency samples (latency_us values) kept as exact counts: one counter
/// per microsecond below kDense, and the rarer larger samples raw.  Its
/// percentiles are those percentile_us gives over the samples themselves,
/// bit for bit, in memory that does not grow with the common samples.
class LatencyCounts {
 public:
  static constexpr std::uint32_t kDense = 1u << 16;  // 65.5 ms

  void add(std::uint32_t us);
  [[nodiscard]] std::size_t size() const { return n_; }

  /// Nearest-rank percentile of the union of `parts`' samples, as
  /// percentile_us over them all would give it; -1 when they are empty.
  [[nodiscard]] static std::int64_t percentile(
      std::span<const LatencyCounts* const> parts, int pct);
  [[nodiscard]] std::int64_t percentile(int pct) const;

 private:
  std::vector<std::uint32_t> dense_;  // counts by µs; allocated on first use
  std::vector<std::uint32_t> over_;   // samples >= kDense
  std::size_t n_ = 0;
};

/// The open-loop conferencing workload over a vorx::System.
///
/// Usage:
///   vorx::System sys(rt, scfg);
///   vorx::WorkloadGen gen(sys, wcfg, seed);       // counts + installs
///   vorx::FaultInjector inj(sys, &gen);
///   inj.install(sim::FaultPlan::named("link_flap", gen.machine_shape(),
///                                     seed, wcfg.horizon));
///   gen.run();                                    // drives the runtime
///   vorx::WorkloadReport r = gen.report();
class WorkloadGen {
 public:
  /// Throws std::invalid_argument when `cfg.horizon` is so long (about
  /// 71 min) that a latency could overflow the 32-bit samples.
  WorkloadGen(System& sys, WorkloadConfig cfg, std::uint64_t seed);
  WorkloadGen(const WorkloadGen&) = delete;
  WorkloadGen& operator=(const WorkloadGen&) = delete;
  ~WorkloadGen();

  /// Runs the machine until every session (and watchdog) has resolved.
  void run();

  /// Merged, deterministic run summary (call after run()).
  [[nodiscard]] WorkloadReport report();

  /// Shape handle for sim::FaultPlan::named().
  [[nodiscard]] sim::MachineShape machine_shape();

  [[nodiscard]] std::uint64_t sessions_generated() const;
  /// Session slots host `host` holds now; each one holds a live stub.
  [[nodiscard]] std::size_t slots_held(int host) const;
  [[nodiscard]] const WorkloadConfig& config() const { return cfg_; }
  [[nodiscard]] System& system() { return sys_; }

 private:
  friend class FaultInjector;
  struct Impl;
  System& sys_;
  WorkloadConfig cfg_;
  std::unique_ptr<Impl> impl_;
};

/// Binds a sim::FaultPlan to the machine: pre-schedules every fault on the
/// owning shard's event queue at the plan's virtual times.  Cube-link
/// faults are applied on EVERY shard at the same instant (each shard owns
/// one direction of the cable and its own route tables — see
/// hw::Fabric::apply_cube_fault); cluster restarts and host crashes are
/// single-shard.  Install before running; replay is byte-identical.
class FaultInjector {
 public:
  /// `gen` may be null when no workload is attached — host-crash events
  /// are then ignored (they target workload host agents).
  explicit FaultInjector(System& sys, WorkloadGen* gen = nullptr);

  void install(const sim::FaultPlan& plan);

  [[nodiscard]] std::uint64_t link_faults() const { return link_faults_; }
  [[nodiscard]] std::uint64_t cluster_restarts() const {
    return cluster_restarts_;
  }
  [[nodiscard]] std::uint64_t host_faults() const { return host_faults_; }

 private:
  System& sys_;
  WorkloadGen* gen_;
  std::uint64_t link_faults_ = 0;
  std::uint64_t cluster_restarts_ = 0;
  std::uint64_t host_faults_ = 0;
};

}  // namespace hpcvorx::vorx
