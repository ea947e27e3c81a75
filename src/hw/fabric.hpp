// The HPC interconnect: endpoints, clusters, and topology construction.
//
// A Fabric assembles Links and Clusters into one of the configurations the
// paper describes (plus one contrast shape, DESIGN.md §15):
//   * single_cluster — up to 12 stations on one cluster (the minimal HPC);
//   * hypercube — clusters joined as an incomplete hypercube, with the low
//     `dims` ports of every cluster used for inter-cluster links and the
//     remaining ports for stations (the 1024-node example in §1 uses 256
//     clusters with 8 cube ports and 4 station ports each);
//   * fat_tree — a two-level leaf/spine folded Clos over the same cluster
//     hardware, the paper-era contrast topology for the scaling sweeps.
//
// Routing is computed, not tabulated: the fabric is every cluster's Router
// and derives the egress port from the frame's destination on the fly
// (e-cube bit arithmetic on the cube, up/down on the tree, or the adaptive
// congestion-aware variant).  Routing state is therefore O(stations +
// clusters) — the O(clusters²) next-hop table this replaced is what kept
// earlier fabrics under ~100 nodes.  Only fault-time rerouting, which must
// answer "shortest *surviving* path", materializes per-shard tables, and
// only on shards that actually saw a fault.
//
// Stations (processing nodes and host workstations look identical to the
// hardware) send and receive whole frames through an Endpoint, which
// models the node's HPC interface: a transmit section with a
// space-available interrupt and a receive section with a small whole-frame
// buffer and a receive interrupt.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hw/cluster.hpp"
#include "hw/frame_pool.hpp"
#include "hw/hypercube.hpp"
#include "hw/link.hpp"
#include "hw/topology.hpp"
#include "sim/shard_runtime.hpp"

namespace hpcvorx::hw {

class Fabric;

/// A station's interface to the interconnect.  It is the consumer of its
/// two links — the sender of station -> cluster, the receiver of
/// cluster -> station — and holds the OS layer's two callbacks itself, one
/// pair per station rather than one per link.
class Endpoint final : public LinkConsumer {
 public:
  [[nodiscard]] StationId id() const { return id_; }

  /// True when a frame may be injected now (transmitter free and the
  /// first-hop buffer has space — hardware flow control, §2).
  [[nodiscard]] bool tx_ready() const { return out_->ready(); }

  /// Injects a frame.  Precondition: tx_ready().  Stamps src/injected_at.
  void transmit(Frame f);

  /// Fired whenever transmission may have become possible: the paper's
  /// "the processor receives an interrupt when room becomes available".
  void set_tx_ready_cb(std::function<void()> cb) {
    tx_ready_cb_ = std::move(cb);
  }

  [[nodiscard]] const Frame* rx_peek() const { return in_->peek(); }

  /// Removes the head received frame, freeing the hardware buffer slot.
  std::optional<Frame> rx_take() { return in_->take(); }

  /// Fired on each frame arrival: the receive interrupt.
  void set_rx_cb(std::function<void()> cb) { rx_cb_ = std::move(cb); }

  /// Frames this endpoint has injected (diagnostics).
  [[nodiscard]] std::uint64_t frames_sent() const { return frames_sent_; }

  /// The fabric-wide payload buffer pool.  The OS layer builds its
  /// steady-state payloads through this so the buffers recycle instead of
  /// round-tripping through make_shared (see frame_pool.hpp).
  [[nodiscard]] FramePool& frame_pool() { return *pool_; }

 private:
  friend class Fabric;
  void link_ready(int /*port*/) override {
    if (tx_ready_cb_) tx_ready_cb_();
  }
  void link_delivered(int /*port*/) override {
    if (rx_cb_) rx_cb_();
  }

  sim::Simulator* sim_ = nullptr;
  StationId id_ = -1;
  Link* out_ = nullptr;  // station -> cluster
  Link* in_ = nullptr;   // cluster -> station
  FramePool* pool_ = nullptr;  // owned by the Fabric
  std::uint64_t frames_sent_ = 0;
  std::function<void()> tx_ready_cb_;
  std::function<void()> rx_cb_;
};

/// Fabric-wide construction parameters.
struct FabricParams {
  Link::Params link;            // applies to every link in the fabric
  int ports_per_cluster = kClusterPorts;
  int rx_buffer_frames = 2;     // endpoint receive-section buffer
  // Optional override for inter-cluster (cube/tree trunk) links only —
  // longer cables between cabinets.  Sharded runs raise its latency to
  // widen the lookahead window (DESIGN.md §12); unset means trunk links
  // use `link`, exactly as before.
  std::optional<Link::Params> cluster_link;
  // Multi-cluster shape make()/make_sharded() build (single-cluster
  // machines ignore it) and how clusters pick egress ports (DESIGN.md §15).
  // A fat tree is always the widest the leaf port budget allows.
  TopologyKind topo = TopologyKind::kHypercube;
  RoutingMode routing = RoutingMode::kEcube;
};

class Fabric final : public Router {
 public:
  using Params = FabricParams;

  /// All `stations` on one cluster.  Requires stations <= ports_per_cluster.
  static std::unique_ptr<Fabric> single_cluster(sim::Simulator& sim,
                                                int stations,
                                                Params params = Params());

  /// Incomplete hypercube of ceil(stations / stations_per_cluster)
  /// clusters.  Requires stations_per_cluster + dimension <= ports (the
  /// check is always on and throws std::invalid_argument with an
  /// actionable message — a 4096-node misconfiguration must not silently
  /// build a broken fabric).
  static std::unique_ptr<Fabric> hypercube(sim::Simulator& sim, int stations,
                                           int stations_per_cluster,
                                           Params params = Params());

  /// Two-level fat tree (topology.hpp): ceil(stations/stations_per_cluster)
  /// leaves, each wired to every spine.  Same always-on validation.
  static std::unique_ptr<Fabric> fat_tree(sim::Simulator& sim, int stations,
                                          int stations_per_cluster,
                                          Params params = Params());

  /// Picks single_cluster when everything fits on one cluster, else the
  /// shape params.topo names with the given stations-per-cluster.
  static std::unique_ptr<Fabric> make(sim::Simulator& sim, int stations,
                                      int stations_per_cluster = 4,
                                      Params params = Params());

  /// Sharded fabric: clusters are split across the runtime's shards, and
  /// every trunk link whose endpoints land on different shards is built as
  /// a TX/RX half pair that bridges itself through the runtime (see
  /// Link::split).  With a 1-shard runtime this is exactly make() — the
  /// same construction order, the same links, byte-identical event
  /// sequences.
  static std::unique_ptr<Fabric> make_sharded(sim::ShardRuntime& rt,
                                              int stations,
                                              int stations_per_cluster = 4,
                                              Params params = Params());

  ~Fabric();

  [[nodiscard]] Endpoint& endpoint(StationId s) { return *endpoints_.at(s); }

  /// The simulator a station's cluster (and thus its node) lives on.
  [[nodiscard]] sim::Simulator& station_sim(StationId s) {
    return *endpoints_.at(static_cast<std::size_t>(s))->sim_;
  }

  /// Which runtime shard a cluster lives on (0 for unsharded fabrics).
  [[nodiscard]] int shard_of_cluster(int c) const {
    return cluster_shard_.empty()
               ? 0
               : cluster_shard_.at(static_cast<std::size_t>(c));
  }
  [[nodiscard]] int num_stations() const {
    return static_cast<int>(endpoints_.size());
  }
  [[nodiscard]] int num_clusters() const {
    return static_cast<int>(clusters_.size());
  }
  [[nodiscard]] int cluster_of(StationId s) const;
  [[nodiscard]] const Cluster& cluster(int c) const { return *clusters_.at(c); }
  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] TopologyKind topology() const { return topo_; }
  [[nodiscard]] RoutingMode routing() const { return params_.routing; }

  /// Cluster hops a frame between the two stations traverses (along the
  /// deterministic route; adaptive routes are minimal, so their hop count
  /// is identical).
  [[nodiscard]] int route_length(StationId a, StationId b) const;

  /// The egress port at cluster `from` for the deterministic route towards
  /// cluster `to`, computed on the fly from the topology (e-cube bit
  /// arithmetic on the cube, up/down on the tree).  Precondition:
  /// from != to.  O(1); no table behind it.
  [[nodiscard]] int inter_next_port(int from, int to) const;

  /// The cluster reached through inter_next_port(from, to).
  [[nodiscard]] int inter_next_cluster(int from, int to) const;

  /// Resident routing-state bytes: station->cluster/port maps plus any
  /// fault-time per-shard tables.  O(stations + clusters) on every
  /// no-fault run at any scale — the acceptance gate for the >1000-node
  /// machine (the bench records it as net.scale_route_kb.*).
  [[nodiscard]] std::size_t routing_state_bytes() const;

  /// The pool Frame payload buffers are recycled through (also reachable
  /// per station via Endpoint::frame_pool()).
  [[nodiscard]] FramePool& frame_pool() { return pools_.front(); }

  // ---- fault injection (DESIGN.md §14) ----
  //
  // Faults mutate only per-shard state: each shard keeps its own mirror of
  // the trunk-link up/down set and its own fault-route table, so the
  // injector pre-schedules the same fault on every shard's simulator at
  // the same virtual time and no shard ever writes another shard's state.
  // Both are allocated lazily on the shard's first fault — a no-fault run
  // never materializes them (per-shard-aware sizing at 4096 nodes), and
  // the build-time computed routes (and every determinism golden) stay
  // untouched.

  /// Every inter-cluster cable as an unordered (lo, hi) cluster pair, in
  /// topology-construction order (feeds sim::MachineShape::cube_edges).
  [[nodiscard]] std::vector<std::pair<int, int>> cube_edge_pairs() const;

  /// Applies a cable fault between clusters `a` and `b` as seen by `shard`:
  /// updates the shard's link-state mirror, downs/ups the direction links
  /// (or cross-shard halves) the shard owns, and recomputes the shard's
  /// fault-route table around the failure (BFS over surviving cables,
  /// preferring the computed deterministic hop when it still lies on a
  /// shortest path).  Must run on the shard's simulator at the fault's
  /// virtual time; the injector schedules it on every shard.  Idempotent.
  void apply_cube_fault(int shard, int a, int b, bool up);

  /// Power-cycles cluster `c` (input fifos dropped, arbiters reset) if the
  /// shard owns it; a no-op on every other shard.
  void apply_cluster_restart(int shard, int c);

  /// Frames lost inside the interconnect (downed links + restarted and
  /// unroutable-at cluster drops), summed fabric-wide.  Virtual-time
  /// deterministic; read after run() — while shards are running the
  /// per-shard components may not be read across threads.
  [[nodiscard]] std::uint64_t frames_dropped() const;

  /// Programs hardware multicast group `gid`: a frame injected by `root`
  /// with Frame::group == gid is replicated inside the clusters along the
  /// union of root->member routes and delivered to every member except the
  /// root itself.  The tree follows the deterministic routes in every
  /// routing mode — replication sets are static switch configuration.
  /// Concurrent group frames are flow-controlled by the hardware like any
  /// others; the software layer keeps at most one multicast outstanding
  /// per group.
  void add_multicast_group(std::uint64_t gid, StationId root,
                           const std::vector<StationId>& members);

 private:
  Fabric(std::vector<sim::Simulator*> sims, Params params);
  /// The one construction body behind every public factory.  `sims` holds
  /// one simulator per shard (a single entry for an unsharded fabric); `rt`
  /// drives them and is read only to split cables that cross shards.
  /// Builds the clusters, then the trunk cables, then the stations — the
  /// order that fixes link creation and exchange registration, and so every
  /// event sequence (DESIGN.md §2.2).
  static std::unique_ptr<Fabric> build(std::vector<sim::Simulator*> sims,
                                       sim::ShardRuntime* rt,
                                       TopologyKind topo, int stations,
                                       int stations_per_cluster,
                                       Params params);
  Link* new_link(sim::Simulator& sim, std::string name, Link::Params p);
  void add_station(int cluster_index, int local_port);
  /// An inter-cluster cable between cluster `a`'s port `port_a` and
  /// cluster `b`'s port `port_b` (a < b): registers it in the fault
  /// registry, then builds its two directions, a -> b first.
  void add_cable(sim::ShardRuntime* rt, int a, int port_a, int b, int port_b,
                 const Link::Params& p);
  /// One direction of a cable, out of `from` port `port_out` into `to` port
  /// `port_in`.  Returns the link, or — when the ends live on different
  /// shards — its TX half, split through `rt` (the RX half is its peer).
  Link* add_direction(sim::ShardRuntime* rt, int from, int to, int port_out,
                      int port_in, const Link::Params& p);
  /// Every cluster's routing oracle (Cluster::set_router): local delivery
  /// port, fault-table route when this shard has live faults, else the
  /// computed deterministic or adaptive next hop.
  Cluster::Route route(int cluster, const Frame& f) override;
  /// Minimal adaptive next hop: the productive egress port with the
  /// lowest queue depth among those ready to accept a frame, ties broken
  /// to the escape port and then the lowest port index; falls back to the
  /// escape port when nothing is ready (DESIGN.md §15).  Reports every
  /// productive port as a candidate, so the arbiter knows when a rip-up
  /// cannot move the head.
  [[nodiscard]] Cluster::Route adaptive_next_port(int from, int to) const;
  [[nodiscard]] sim::Simulator& cluster_sim(int c);
  /// Registry index of the cable between clusters `a` and `b` (-1: no
  /// cable): O(1) through cable_at_.
  [[nodiscard]] int cube_pair_index(int a, int b) const;
  /// The shard's cable mirror, created on first use (all cables up).
  std::vector<char>& edge_mirror(int shard);
  /// Rebuilds `shard`'s fault-route table from its link-state mirror.
  void recompute_shard_routes(int shard);

  std::vector<sim::Simulator*> sims_;  // one per shard
  Params params_;
  TopologyKind topo_ = TopologyKind::kSingleCluster;
  FatTreeShape fat_;  // valid only when topo_ == kFatTree
  std::vector<std::unique_ptr<Link>> links_;
  std::vector<std::unique_ptr<Cluster>> clusters_;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::vector<int> station_cluster_;     // station -> cluster index
  std::vector<int> station_local_port_;  // station -> port on its cluster
  std::vector<int> cluster_shard_;       // cluster -> shard (empty => all 0)
  // One entry per inter-cluster cable (unordered pair, a < b), registered
  // in topology-construction order.  `ab`/`ba` are the direction links
  // (the TX half when the cable crosses shards, with the RX half as its
  // peer); faults address cables through this registry.  port_a/port_b are
  // the egress ports at each end (equal to the cube dimension on the
  // hypercube; uplink/leaf indices on the fat tree).
  struct CubePair {
    int a = 0, b = 0;
    int port_a = 0, port_b = 0;
    Link* ab = nullptr;  // a -> b (whole link, or cross-shard TX half)
    Link* ba = nullptr;
  };
  std::vector<CubePair> cube_pairs_;
  // cable_at_[lo * ports_per_cluster + port] — the registry index of the
  // cable leaving the lower-numbered cluster `lo` through egress `port`
  // (-1: none).  That port is computed from the pair (the cube dimension;
  // the spine index at a leaf), so a cable is found without a search.
  std::vector<int> cable_at_;
  // Fault-time state, all lazily allocated on a shard's first fault (a
  // no-fault run at 4096 nodes carries zero bytes of it):
  //   * shard_edge_up_[shard][pair] — the shard's cable-state mirror;
  //   * fault_next_port_[shard][c * n + dc] — the shard's rerouted egress
  //     ports (-1 unreachable), O(clusters²) but only where faults are
  //     live.  Each shard's thread reads and writes only its own rows.
  std::vector<std::vector<char>> shard_edge_up_;
  std::vector<std::vector<std::int16_t>> fault_next_port_;
  std::vector<FramePool> pools_;  // one payload pool per shard
};

}  // namespace hpcvorx::hw
