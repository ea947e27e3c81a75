#include "hw/topology.hpp"

#include <algorithm>
#include <stdexcept>

namespace hpcvorx::hw {

FatTreeShape FatTreeShape::plan(int stations, int stations_per_leaf,
                                int leaf_ports) {
  if (stations < 1 || stations_per_leaf < 1) {
    throw std::invalid_argument(
        "hw::Fabric fat tree: need stations >= 1 and stations_per_leaf >= 1 "
        "(got stations=" +
        std::to_string(stations) +
        ", stations_per_leaf=" + std::to_string(stations_per_leaf) + ")");
  }
  FatTreeShape shape;
  shape.stations_per_leaf = stations_per_leaf;
  shape.leaves = (stations + stations_per_leaf - 1) / stations_per_leaf;
  const int uplink_budget = leaf_ports - stations_per_leaf;
  if (uplink_budget < 1) {
    throw std::invalid_argument(
        "hw::Fabric fat tree: leaf port budget exceeded — " +
        std::to_string(stations_per_leaf) + " stations/leaf leave " +
        std::to_string(uplink_budget) + " of " + std::to_string(leaf_ports) +
        " ports for uplinks; lower stations_per_cluster or raise "
        "FabricParams::ports_per_cluster");
  }
  // At least one leaf and one uplink, so at least one spine, and never
  // more uplinks than the budget.
  shape.spines = std::min(uplink_budget, shape.leaves);
  return shape;
}

std::string to_string(TopologyKind t) {
  switch (t) {
    case TopologyKind::kSingleCluster:
      return "single";
    case TopologyKind::kHypercube:
      return "cube";
    case TopologyKind::kFatTree:
      return "fattree";
  }
  return "?";
}

std::string to_string(RoutingMode r) {
  return r == RoutingMode::kEcube ? "ecube" : "adaptive";
}

TopologyKind parse_topology(const std::string& s) {
  if (s == "cube" || s == "hypercube") return TopologyKind::kHypercube;
  if (s == "fattree" || s == "fat-tree") return TopologyKind::kFatTree;
  throw std::invalid_argument("unknown topology '" + s +
                              "' (expected cube or fattree)");
}

RoutingMode parse_routing(const std::string& s) {
  if (s == "ecube") return RoutingMode::kEcube;
  if (s == "adaptive") return RoutingMode::kAdaptive;
  throw std::invalid_argument("unknown routing mode '" + s +
                              "' (expected ecube or adaptive)");
}

}  // namespace hpcvorx::hw
