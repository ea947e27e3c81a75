#include "sim/fault_plan.hpp"

#include <algorithm>
#include <cassert>

namespace hpcvorx::sim {

void FaultPlan::sort() {
  std::sort(events_.begin(), events_.end(),
            [](const FaultEvent& x, const FaultEvent& y) {
              if (x.at != y.at) return x.at < y.at;
              if (x.kind != y.kind) return x.kind < y.kind;
              if (x.a != y.a) return x.a < y.a;
              return x.b < y.b;
            });
}

bool FaultPlan::known(const std::string& name) {
  return name == "none" || name == "link_flap" ||
         name == "cluster_restart" || name == "stub_crash";
}

FaultPlan FaultPlan::named(const std::string& name, const MachineShape& shape,
                           std::uint64_t seed, Duration horizon) {
  assert(known(name) && "unknown fault plan name");
  FaultPlan plan;
  if (name == "none" || horizon <= 0) return plan;
  // Distinct streams per plan name so "link_flap seed 7" and
  // "cluster_restart seed 7" are uncorrelated.
  std::uint64_t salt = 0;
  for (char c : name) salt = salt * 131 + static_cast<unsigned char>(c);
  Rng rng(seed ^ (salt * 0x9e3779b97f4a7c15ULL));

  // Faults start after a warm-up fifth of the horizon (sessions exist to be
  // disrupted) and recovery always lands inside the horizon, so every run
  // also measures post-repair behaviour.
  const SimTime t0 = horizon / 5;
  const SimTime t1 = horizon;
  auto uniform_time = [&](SimTime lo, SimTime hi) {
    return lo + static_cast<SimTime>(rng.below(
                    static_cast<std::uint64_t>(std::max<SimTime>(hi - lo, 1))));
  };

  if (name == "link_flap") {
    if (shape.cube_edges.empty()) return plan;  // single cluster: no cables
    // A couple of cables flap 2-3 times each; each outage lasts 2-8% of
    // the horizon.
    const int cables = static_cast<int>(
        1 + rng.below(std::min<std::uint64_t>(2, shape.cube_edges.size())));
    for (int c = 0; c < cables; ++c) {
      const auto& e = shape.cube_edges[rng.below(shape.cube_edges.size())];
      const int flaps = static_cast<int>(2 + rng.below(2));
      for (int i = 0; i < flaps; ++i) {
        const SimTime down = uniform_time(t0, t1 - horizon / 10);
        const Duration outage =
            horizon / 50 + static_cast<Duration>(rng.below(
                               static_cast<std::uint64_t>(horizon / 16)));
        plan.add({down, FaultKind::kLinkDown, e.first, e.second});
        plan.add({std::min<SimTime>(down + outage, t1 - 1), FaultKind::kLinkUp,
                  e.first, e.second});
      }
    }
  } else if (name == "cluster_restart") {
    if (shape.clusters <= 1) return plan;
    const int restarts = static_cast<int>(2 + rng.below(3));
    for (int i = 0; i < restarts; ++i) {
      const int c =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(shape.clusters)));
      plan.add({uniform_time(t0, t1), FaultKind::kClusterRestart, c, 0});
    }
  } else if (name == "stub_crash") {
    if (shape.hosts <= 0) return plan;
    // One host (two when the machine has spares) dies for 15-40% of the
    // horizon.  Leaving at least one healthy host keeps allocation retry
    // meaningful rather than hopeless.
    const int crashes = shape.hosts >= 3 ? 2 : 1;
    for (int i = 0; i < crashes; ++i) {
      const int h =
          static_cast<int>(rng.below(static_cast<std::uint64_t>(shape.hosts)));
      const SimTime down = uniform_time(t0, t1 - horizon / 4);
      const Duration outage =
          horizon * 3 / 20 + static_cast<Duration>(rng.below(
                                 static_cast<std::uint64_t>(horizon / 4)));
      plan.add({down, FaultKind::kHostCrash, h, 0});
      plan.add({std::min<SimTime>(down + outage, t1 - 1),
                FaultKind::kHostRestart, h, 0});
    }
  }
  plan.sort();
  return plan;
}

}  // namespace hpcvorx::sim
