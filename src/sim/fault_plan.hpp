// Deterministic fault schedules for availability experiments.
//
// A FaultPlan is a pure data object: a list of (virtual time, fault kind,
// target) events generated before the simulation starts, from a seed, by
// sim::Rng.  Nothing in this file touches hardware — the vorx workload
// layer (vorx::FaultInjector) binds each event to the concrete hw::Link /
// hw::Cluster / host-station calls and pre-schedules it on every shard's
// own simulator.  Because the plan is fixed before run() and every
// application event runs at its planned virtual time, a faulted run
// replays byte-identically from (plan seed, workload seed).
//
// The taxonomy matches ROADMAP direction 4 (and DESIGN.md §14):
//   * link down/up      — an inter-cluster cable fails and later recovers;
//   * cluster restart   — a switch power-cycles, dropping its input fifos;
//   * host crash/restart— a stub-serving workstation dies silently, then
//                         comes back empty (dead stubs, lost slots).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/random.hpp"
#include "sim/time.hpp"

namespace hpcvorx::sim {

enum class FaultKind : std::uint8_t {
  kLinkDown,       // a = cluster A, b = cluster B (both directions fail)
  kLinkUp,         // a/b as kLinkDown: the cable is replaced
  kClusterRestart, // a = cluster index (instantaneous power-cycle)
  kHostCrash,      // a = host index (stops serving allocations and stubs)
  kHostRestart,    // a = host index (back, with empty slot/stub tables)
};

struct FaultEvent {
  SimTime at = 0;
  FaultKind kind = FaultKind::kLinkDown;
  int a = 0;
  int b = 0;
};

/// What the plan generator needs to know about the machine: enough to pick
/// valid targets, and nothing that would drag hardware types into sim/.
struct MachineShape {
  int clusters = 0;
  int hosts = 0;
  // Every inter-cluster cable as an unordered (lo, hi) cluster pair, in
  // topology-construction order (hw::Fabric reports these).
  std::vector<std::pair<int, int>> cube_edges;
};

class FaultPlan {
 public:
  /// Builds one of the named plans used by the CI fault matrix.  Every
  /// event time and target is drawn from Rng(seed), so (name, shape, seed,
  /// horizon) fully determines the schedule.  Known names:
  ///   "none"            — empty plan (the control cell)
  ///   "link_flap"       — a few cables flap down/up repeatedly
  ///   "cluster_restart" — a few switches power-cycle mid-run
  ///   "stub_crash"      — a host crashes, then restarts later
  /// Unknown names abort via assert (callers validate first; see known()).
  static FaultPlan named(const std::string& name, const MachineShape& shape,
                         std::uint64_t seed, Duration horizon);

  /// True when `name` is one of the plans named() understands.
  [[nodiscard]] static bool known(const std::string& name);

  /// Events sorted by (time, kind, a, b) — the deterministic apply order.
  [[nodiscard]] const std::vector<FaultEvent>& events() const {
    return events_;
  }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// Appends one event (tests and ad-hoc plans); sort() before use.
  void add(FaultEvent e) { events_.push_back(e); }
  void sort();

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace hpcvorx::sim
