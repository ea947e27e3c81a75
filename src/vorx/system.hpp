// Top-level assembly: fabric + nodes + hosts = a local area multicomputer.
//
// A System builds the machine of Figure 1: a pool of processing nodes and
// a set of host workstations, all attached to the HPC interconnect.  The
// configuration chooses between the two resource-management generations
// the paper contrasts:
//   * VORX (default): the object manager is replicated onto every
//     processing node with distributed hashing of names (§3.2);
//   * Meglos mode: every open is serviced by the single host — the
//     centralized bottleneck the paper measured.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "hw/fabric.hpp"
#include "sim/shard_runtime.hpp"
#include "vorx/cost_model.hpp"
#include "vorx/multicast.hpp"
#include "vorx/node.hpp"

namespace hpcvorx::vorx {

struct SystemConfig {
  int nodes = 4;                     // processing nodes
  int hosts = 1;                     // host workstations
  int stations_per_cluster = 4;      // when the system spans clusters
  hw::FabricParams fabric{};
  CostModel costs{};
  bool centralized_object_manager = false;  // Meglos-style single manager
  std::size_t channel_side_buffers = 16;
  bool record_intervals = false;     // software-oscilloscope tracing
  bool record_counters = false;      // hardware/OS counter timeline (trace
                                     // exporter; enables sim.counters())
};

class System {
 public:
  explicit System(sim::Simulator& sim, SystemConfig cfg = SystemConfig());

  /// Sharded machine: the fabric is partitioned by cluster across the
  /// runtime's shards (hw::Fabric::make_sharded) and each station's node
  /// lives on its cluster's shard simulator.  Drive it with
  /// ShardRuntime::run()/run_until(); with a 1-shard runtime this is the
  /// single-threaded engine, byte for byte.
  System(sim::ShardRuntime& rt, SystemConfig cfg = SystemConfig());

  System(const System&) = delete;
  System& operator=(const System&) = delete;

  /// Reclaims every still-suspended process coroutine frame before the
  /// stations are torn down.  Parked frames (a subprocess blocked forever
  /// on a channel, a starved sender) hold RAII state — e.g. the census
  /// BlockedScope — whose destructors touch their Node, so they must be
  /// destroyed while the nodes are still alive; ~Simulator would be too
  /// late.  See sim/proc_registry.hpp.
  ~System();

  [[nodiscard]] int num_nodes() const { return cfg_.nodes; }
  [[nodiscard]] int num_hosts() const { return cfg_.hosts; }

  /// Processing node i (stations 0..nodes-1).
  [[nodiscard]] Node& node(int i) { return *stations_.at(static_cast<std::size_t>(i)); }
  /// Host workstation j (stations nodes..nodes+hosts-1).
  [[nodiscard]] Node& host(int j) {
    return *stations_.at(static_cast<std::size_t>(cfg_.nodes + j));
  }
  /// Any station by id.
  [[nodiscard]] Node& station(hw::StationId s) {
    return *stations_.at(static_cast<std::size_t>(s));
  }
  [[nodiscard]] hw::StationId node_station(int i) const { return i; }
  [[nodiscard]] hw::StationId host_station(int j) const { return cfg_.nodes + j; }

  /// Shard-0 simulator (the only one for non-sharded systems).
  [[nodiscard]] sim::Simulator& simulator() { return *sims_.front(); }
  /// Every simulator a station lives on, in shard order: one entry for a
  /// System built over a single Simulator.
  [[nodiscard]] const std::vector<sim::Simulator*>& simulators() const {
    return sims_;
  }
  /// Runs the machine until virtual time `deadline`: the shard runtime's
  /// rounds when there is one, else the single Simulator.
  void run_until(sim::SimTime deadline);
  [[nodiscard]] hw::Fabric& fabric() { return *fabric_; }
  [[nodiscard]] const SystemConfig& config() const { return cfg_; }

  /// Which station manages a given object name (see file comment).
  [[nodiscard]] hw::StationId manager_for(const std::string& name) const;

  /// Creates a multicast group across processing nodes: one handle per
  /// member, root first in `handles[root position]` semantics preserved by
  /// index (handles[i] belongs to node_indices[i]).  Hardware mode also
  /// programs the clusters' replication tables.
  std::vector<Mcast*> create_multicast_group(
      std::uint64_t gid, const std::vector<int>& node_indices, int root_index,
      McastMode mode = McastMode::kSoftwareTree);

  /// Closes every CPU's open accounting span (call before reading ledgers).
  void finalize_accounting();

 private:
  /// The one constructor body: `sims` are the fabric's shard simulators,
  /// `rt` drives them (null over a single Simulator).
  System(SystemConfig cfg, std::vector<sim::Simulator*> sims,
         sim::ShardRuntime* rt, std::unique_ptr<hw::Fabric> fabric);

  std::vector<sim::Simulator*> sims_;
  sim::ShardRuntime* runtime_;
  SystemConfig cfg_;
  std::unique_ptr<hw::Fabric> fabric_;
  std::vector<std::unique_ptr<Node>> stations_;
};

}  // namespace hpcvorx::vorx
