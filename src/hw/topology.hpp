// Topology descriptors for the HPC interconnect.
//
// The paper's machine connects its 12-port clusters as an incomplete
// hypercube (§1), but nothing above the Fabric depends on that shape: a
// topology only has to answer "out of which port does a frame for cluster
// `to` leave cluster `from`?".  This unit names the shapes the Fabric can
// build and plans the contrast topology — a two-level fat tree (leaf/spine
// folded Clos) of the same star-switch clusters — so node-count sweeps can
// compare e-cube routing against a paper-era alternative on identical
// hardware.  Next hops are *computed*, never tabulated: routing state is
// O(clusters), not O(clusters²), which is what lets the simulated machine
// reach the paper's ">1000 nodes" claim (DESIGN.md §15).
#pragma once

#include <string>

namespace hpcvorx::hw {

/// The cluster-graph shapes a Fabric can be built as.
enum class TopologyKind {
  kSingleCluster,  // everything on one star switch
  kHypercube,      // incomplete hypercube over the cluster labels (§1)
  kFatTree,        // two-level leaf/spine folded Clos (contrast topology)
};

/// How a cluster picks the egress port for a frame it must forward on.
enum class RoutingMode {
  kEcube,     // deterministic: e-cube order on the cube, dst-hash on the tree
  kAdaptive,  // congestion-aware minimal: lowest egress queue depth among
              // productive ports, deterministic tie-breaks (DESIGN.md §15)
};

/// Geometry of a two-level fat tree: `leaves` station-bearing clusters,
/// each wired once to every one of `spines` top switches.  Leaf port
/// layout mirrors the cube's ("low ports are inter-cluster"): ports
/// [0, spines) are uplinks (port u reaches spine u), stations sit on ports
/// [spines, spines + stations_per_leaf).  Spine s is a `leaves`-port
/// switch whose port l is the full-duplex pair of leaf l's uplink port s —
/// the "fat" upper stage is modelled as one wide crossbar per spine.
struct FatTreeShape {
  int leaves = 0;
  int spines = 0;
  int stations_per_leaf = 0;

  /// Plans the shape for `stations` total stations with
  /// `stations_per_leaf` per leaf and `leaf_ports` ports per leaf switch:
  /// the widest tree the leaf port budget allows (leaf_ports -
  /// stations_per_leaf uplinks, capped at the leaf count).  Throws
  /// std::invalid_argument with an actionable message on an infeasible
  /// shape (always-on: misconfigurations must not silently build a broken
  /// fabric).
  static FatTreeShape plan(int stations, int stations_per_leaf,
                           int leaf_ports);

  /// Total clusters: leaves first (0..leaves-1), then spines.
  [[nodiscard]] int num_clusters() const { return leaves + spines; }
  [[nodiscard]] bool is_leaf(int cluster) const { return cluster < leaves; }

  /// The spine a frame for `dst_leaf` climbs through — the deterministic
  /// destination hash, so all traffic to one leaf shares one spine and the
  /// adaptive mode has real imbalance to exploit.
  [[nodiscard]] int spine_for(int dst_leaf) const { return dst_leaf % spines; }

  /// Egress port at cluster `from` towards leaf cluster `to` (from != to;
  /// `to` must be a leaf — stations live only on leaves).
  [[nodiscard]] int next_port(int from, int to) const {
    return is_leaf(from) ? spine_for(to)  // uplink port u == spine index u
                         : to;            // spine port l == leaf index l
  }

  /// The cluster reached through next_port(from, to).
  [[nodiscard]] int next_cluster(int from, int to) const {
    return is_leaf(from) ? leaves + spine_for(to) : to;
  }
};

/// Flag-spelling helpers shared by benches, examples, and tests
/// (`--topo cube|fattree`, `--routing ecube|adaptive`).  Parsers throw
/// std::invalid_argument naming the accepted spellings.
[[nodiscard]] std::string to_string(TopologyKind t);
[[nodiscard]] std::string to_string(RoutingMode r);
[[nodiscard]] TopologyKind parse_topology(const std::string& s);
[[nodiscard]] RoutingMode parse_routing(const std::string& s);

}  // namespace hpcvorx::hw
