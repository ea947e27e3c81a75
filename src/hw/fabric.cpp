#include "hw/fabric.hpp"

#include <algorithm>
#include <cassert>
#include <set>
#include <stdexcept>

#include "sim/shard_runtime.hpp"

namespace hpcvorx::hw {

namespace {

// The shape make() and make_sharded() build: one cluster when every
// station fits on one and the machine runs on one simulator, else the cube
// or tree params.topo names.  More than one shard always means a cube or
// a tree, even for a machine that would fit one cluster.
TopologyKind pick_shape(int shards, int stations, const FabricParams& p) {
  if (shards == 1 && stations <= p.ports_per_cluster) {
    return TopologyKind::kSingleCluster;
  }
  return p.topo == TopologyKind::kFatTree ? TopologyKind::kFatTree
                                          : TopologyKind::kHypercube;
}

}  // namespace

Fabric::~Fabric() = default;

void Endpoint::transmit(Frame f) {
  assert(tx_ready() && "Endpoint::transmit while not tx_ready");
  assert(f.payload_bytes <= kMaxPayloadBytes &&
         "HPC frames are limited to 1060 payload bytes");
  assert(f.dst >= 0 || f.group != 0);
  f.src = id_;
  f.injected_at = sim_->now();
  ++frames_sent_;
  out_->send(std::move(f));
}

Link* Fabric::new_link(sim::Simulator& sim, std::string name, Link::Params p) {
  links_.push_back(std::make_unique<Link>(sim, std::move(name), p));
  return links_.back().get();
}

Fabric::Fabric(std::vector<sim::Simulator*> sims, Params params)
    : sims_(std::move(sims)), params_(params), pools_(sims_.size()) {}

sim::Simulator& Fabric::cluster_sim(int c) {
  return *sims_[static_cast<std::size_t>(shard_of_cluster(c))];
}

void Fabric::add_station(int cluster_index, int local_port) {
  const StationId id = static_cast<StationId>(endpoints_.size());
  // Everything a station touches — its links, its endpoint, its payload
  // pool — lives on its cluster's shard simulator; station links are
  // always intra-shard.
  sim::Simulator& csim = cluster_sim(cluster_index);
  auto ep = std::make_unique<Endpoint>();
  ep->sim_ = &csim;
  ep->id_ = id;

  Cluster& cl = *clusters_[cluster_index];
  Link::Params up_p = params_.link;
  // Station -> cluster: the downstream buffer is the cluster's input fifo.
  Link* up = new_link(csim,
                      "s" + std::to_string(id) + ">c" +
                          std::to_string(cluster_index),
                      up_p);
  cl.attach_in(local_port, up);
  up->set_sender(ep.get(), 0);
  ep->out_ = up;
  // Cluster -> station: the downstream buffer is the endpoint's receive
  // section.
  Link::Params down_p = params_.link;
  down_p.buffer_frames = params_.rx_buffer_frames;
  Link* down = new_link(csim,
                        "c" + std::to_string(cluster_index) + ">s" +
                            std::to_string(id),
                        down_p);
  cl.attach_out(local_port, down);
  down->set_receiver(ep.get(), 0);
  ep->in_ = down;
  ep->pool_ =
      &pools_[static_cast<std::size_t>(shard_of_cluster(cluster_index))];

  endpoints_.push_back(std::move(ep));
  station_cluster_.push_back(cluster_index);
  station_local_port_.push_back(local_port);
}

void Fabric::add_cable(sim::ShardRuntime* rt, int a, int port_a, int b,
                       int port_b, const Link::Params& p) {
  assert(a < b);
  cable_at_[static_cast<std::size_t>(a * params_.ports_per_cluster + port_a)] =
      static_cast<int>(cube_pairs_.size());
  CubePair& e = cube_pairs_.emplace_back(CubePair{a, b, port_a, port_b});
  e.ab = add_direction(rt, a, b, port_a, port_b, p);
  e.ba = add_direction(rt, b, a, port_b, port_a, p);
}

Link* Fabric::add_direction(sim::ShardRuntime* rt, int from, int to,
                            int port_out, int port_in, const Link::Params& p) {
  const std::string name =
      "c" + std::to_string(from) + ">c" + std::to_string(to);
  const int from_shard = shard_of_cluster(from);
  const int to_shard = shard_of_cluster(to);
  const bool split = from_shard != to_shard;
  Link* tx = new_link(cluster_sim(from), split ? name + ".tx" : name, p);
  Link* rx = split ? new_link(cluster_sim(to), name + ".rx", p) : tx;
  clusters_[static_cast<std::size_t>(from)]->attach_out(port_out, tx);
  clusters_[static_cast<std::size_t>(to)]->attach_in(port_in, rx);
  // Only a fabric with more than one shard splits a cable, and only
  // make_sharded() builds one: the runtime is there.
  if (split) Link::split(*rt, from_shard, to_shard, *tx, *rx);
  return tx;
}

Cluster::Route Fabric::route(int cluster, const Frame& f) {
  assert(f.dst >= 0 && f.dst < num_stations() &&
         "frame addressed to a station this fabric never built");
  const int dc = station_cluster_[static_cast<std::size_t>(f.dst)];
  if (dc == cluster) {
    return {station_local_port_[static_cast<std::size_t>(f.dst)]};
  }
  // A shard with live fault history routes from its BFS table (including
  // after full recovery, when the table has converged back to the
  // deterministic hops); adaptive choice is suspended there because the
  // table already encodes "shortest surviving path".
  const auto shard = static_cast<std::size_t>(shard_of_cluster(cluster));
  const std::vector<std::int16_t>& ft = fault_next_port_[shard];
  if (!ft.empty()) {
    return {ft[static_cast<std::size_t>(cluster) *
                   static_cast<std::size_t>(num_clusters()) +
               static_cast<std::size_t>(dc)]};
  }
  return params_.routing == RoutingMode::kAdaptive
             ? adaptive_next_port(cluster, dc)
             : Cluster::Route{inter_next_port(cluster, dc)};
}

int Fabric::inter_next_port(int from, int to) const {
  assert(from != to);
  switch (topo_) {
    case TopologyKind::kHypercube: {
      const auto a = static_cast<CubeLabel>(from);
      const auto next = next_hypercube_hop(
          a, static_cast<CubeLabel>(to),
          static_cast<CubeLabel>(num_clusters()));
      return bit_index(a ^ next);  // egress port == cube dimension
    }
    case TopologyKind::kFatTree:
      return fat_.next_port(from, to);
    case TopologyKind::kSingleCluster:
      break;
  }
  assert(false && "inter_next_port on a single-cluster fabric");
  return -1;
}

int Fabric::inter_next_cluster(int from, int to) const {
  assert(from != to);
  switch (topo_) {
    case TopologyKind::kHypercube:
      return static_cast<int>(next_hypercube_hop(
          static_cast<CubeLabel>(from), static_cast<CubeLabel>(to),
          static_cast<CubeLabel>(num_clusters())));
    case TopologyKind::kFatTree:
      return fat_.next_cluster(from, to);
    case TopologyKind::kSingleCluster:
      break;
  }
  assert(false && "inter_next_cluster on a single-cluster fabric");
  return -1;
}

Cluster::Route Fabric::adaptive_next_port(int from, int to) const {
  // The nextpnr rip-up idiom reduced to a switch: every *allowed minimal*
  // egress candidate is scored by its congestion (queue depth), and ties
  // break deterministically — the escape port first, then the lowest port
  // index.  Heads are only committed to ports that can accept a frame
  // now; when every candidate is stalled the head parks on the escape
  // port and is ripped up as soon as any candidate drains (the cluster
  // rips up decisions that report candidates).  What makes this
  // deadlock-free is the shape of the candidate set, not the scoring — see
  // each topology below and DESIGN.md §15.
  const Cluster& cl = *clusters_[static_cast<std::size_t>(from)];
  Cluster::Route r;
  std::size_t best_depth = 0;
  auto consider = [&](int port) {
    r.candidates |= port < 64 ? std::uint64_t{1} << port : Cluster::kAnyPort;
    if (!cl.port_ready(port)) return;
    const std::size_t depth = cl.out_link(port)->queue_depth();
    if (r.port < 0 || depth < best_depth ||
        (depth == best_depth && port == r.escape && r.port != r.escape)) {
      r.port = port;
      best_depth = depth;
    }
  };
  switch (topo_) {
    case TopologyKind::kHypercube: {
      // Negative-first (turn-model) candidates: while any productive
      // dimension clears a 1-bit of the current label, only those count;
      // once none remain, the 0->1 dimensions do.  Labels then strictly
      // decrease, then strictly increase, along every path, so the link
      // wait-for graph is acyclic: deadlock-free with a single shared
      // buffer per link, no virtual channels.  Both phases are always
      // feasible in the incomplete cube — clearing a bit lowers the
      // label, and in the up phase the label is a subset of the
      // destination's bits, so every intermediate exists.  Paths stay
      // minimal (one hop per differing bit).
      const auto a = static_cast<CubeLabel>(from);
      const CubeLabel diff = a ^ static_cast<CubeLabel>(to);
      const CubeLabel down = diff & a;
      const CubeLabel phase = down != 0 ? down : diff;
      const int dims = dimension_of(static_cast<CubeLabel>(num_clusters()));
      for (int d = 0; d < dims; ++d) {
        if (((phase >> d) & 1u) == 0) continue;
        if (r.escape < 0) r.escape = d;  // lowest allowed dimension
        consider(d);
      }
      break;
    }
    case TopologyKind::kFatTree:
      r.escape = inter_next_port(from, to);
      if (!fat_.is_leaf(from)) return {r.escape};  // spine: one down port
      // Any spine reaches any leaf in one more hop: all uplinks are
      // minimal candidates, and up/down routing is acyclic whichever
      // uplink is picked (no packet goes up after coming down).
      for (int sp = 0; sp < fat_.spines; ++sp) consider(sp);
      break;
    case TopologyKind::kSingleCluster:
      return {inter_next_port(from, to)};
  }
  assert(r.escape >= 0);
  if (r.port < 0) r.port = r.escape;
  return r;
}

std::size_t Fabric::routing_state_bytes() const {
  std::size_t bytes = station_cluster_.capacity() * sizeof(int) +
                      station_local_port_.capacity() * sizeof(int) +
                      cluster_shard_.capacity() * sizeof(int);
  for (const auto& row : shard_edge_up_) bytes += row.capacity();
  for (const auto& t : fault_next_port_) {
    bytes += t.capacity() * sizeof(std::int16_t);
  }
  return bytes;
}

std::vector<std::pair<int, int>> Fabric::cube_edge_pairs() const {
  std::vector<std::pair<int, int>> out;
  out.reserve(cube_pairs_.size());
  for (const CubePair& e : cube_pairs_) out.emplace_back(e.a, e.b);
  return out;
}

int Fabric::cube_pair_index(int a, int b) const {
  const int lo = std::min(a, b);
  const int hi = std::max(a, b);
  if (lo < 0 || hi >= num_clusters()) return -1;
  // The egress port at the lower end follows from the pair: the cube
  // dimension the labels differ in, or the spine index at a leaf.
  int port = -1;
  if (topo_ == TopologyKind::kHypercube) {
    const auto diff = static_cast<CubeLabel>(lo ^ hi);
    if (diff == 0 || (diff & (diff - 1)) != 0) return -1;  // not adjacent
    port = bit_index(diff);
  } else if (topo_ == TopologyKind::kFatTree) {
    if (!fat_.is_leaf(lo) || fat_.is_leaf(hi)) return -1;
    port = hi - fat_.leaves;
  }
  if (port < 0 || port >= params_.ports_per_cluster) return -1;
  const int idx = cable_at_[static_cast<std::size_t>(
      lo * params_.ports_per_cluster + port)];
  assert(idx < 0 || (cube_pairs_[static_cast<std::size_t>(idx)].a == lo &&
                     cube_pairs_[static_cast<std::size_t>(idx)].b == hi));
  return idx;
}

std::vector<char>& Fabric::edge_mirror(int shard) {
  std::vector<char>& row = shard_edge_up_.at(static_cast<std::size_t>(shard));
  if (row.empty()) row.assign(cube_pairs_.size(), 1);
  return row;
}

void Fabric::apply_cube_fault(int shard, int a, int b, bool up) {
  const int idx = cube_pair_index(a, b);
  assert(idx >= 0 && "no cube cable between these clusters");
  std::vector<char>& mirror = edge_mirror(shard);
  if ((mirror[static_cast<std::size_t>(idx)] != 0) == up) return;
  mirror[static_cast<std::size_t>(idx)] = up ? 1 : 0;
  const CubePair& e = cube_pairs_[static_cast<std::size_t>(idx)];
  const int sa = shard_of_cluster(e.a);
  const int sb = shard_of_cluster(e.b);
  const auto apply = [&](Link* l, int owner) {
    if (l == nullptr || owner != shard) return;
    if (up) {
      l->set_up();
    } else {
      l->set_down();
    }
  };
  apply(e.ab, sa);          // a -> b: TX half (or whole link) lives with a
  apply(e.ab->peer(), sb);  //         RX half with b
  apply(e.ba, sb);
  apply(e.ba->peer(), sa);
  recompute_shard_routes(shard);
}

void Fabric::apply_cluster_restart(int shard, int c) {
  if (shard_of_cluster(c) != shard) return;
  clusters_.at(static_cast<std::size_t>(c))->restart();
}

void Fabric::recompute_shard_routes(int shard) {
  const int n = num_clusters();
  const std::vector<char>& up =
      shard_edge_up_.at(static_cast<std::size_t>(shard));
  assert(!up.empty() && "recompute before any fault on this shard");
  // Adjacency over surviving cables: (neighbour, egress port) per cluster.
  std::vector<std::vector<std::pair<int, int>>> adj(
      static_cast<std::size_t>(n));
  for (std::size_t i = 0; i < cube_pairs_.size(); ++i) {
    if (up[i] == 0) continue;
    const CubePair& e = cube_pairs_[i];
    adj[static_cast<std::size_t>(e.a)].emplace_back(e.b, e.port_a);
    adj[static_cast<std::size_t>(e.b)].emplace_back(e.a, e.port_b);
  }
  // The shard's fault-route table (materialized here, on its first fault):
  // next_port[c * n + dc] is the egress port from cluster c towards
  // cluster dc over surviving cables (-1 unreachable), for the shard's
  // clusters.
  std::vector<std::int16_t>& next_port =
      fault_next_port_.at(static_cast<std::size_t>(shard));
  next_port.assign(
      static_cast<std::size_t>(n) * static_cast<std::size_t>(n),
      std::int16_t{-1});
  std::vector<int> dist(static_cast<std::size_t>(n));
  std::vector<int> bfs;
  bfs.reserve(static_cast<std::size_t>(n));
  for (int dc = 0; dc < n; ++dc) {
    std::fill(dist.begin(), dist.end(), -1);
    dist[static_cast<std::size_t>(dc)] = 0;
    bfs.clear();
    bfs.push_back(dc);
    for (std::size_t h = 0; h < bfs.size(); ++h) {
      const int c = bfs[h];
      for (const auto& [nb, port] : adj[static_cast<std::size_t>(c)]) {
        (void)port;
        if (dist[static_cast<std::size_t>(nb)] >= 0) continue;
        dist[static_cast<std::size_t>(nb)] =
            dist[static_cast<std::size_t>(c)] + 1;
        bfs.push_back(nb);
      }
    }
    for (int c = 0; c < n; ++c) {
      if (c == dc || shard_of_cluster(c) != shard) continue;
      if (dist[static_cast<std::size_t>(c)] < 0) continue;  // unreachable
      // Prefer the computed deterministic hop when it still lies on a
      // shortest surviving path — a fully-recovered topology converges
      // back to the exact build-time routes.  Otherwise the lowest
      // surviving egress port on a shortest path (deterministic
      // tie-break).
      const int want = dist[static_cast<std::size_t>(c)] - 1;
      const int eport = inter_next_port(c, dc);
      int best = -1;
      for (const auto& [nb, port] : adj[static_cast<std::size_t>(c)]) {
        if (dist[static_cast<std::size_t>(nb)] != want) continue;
        if (port == eport) {
          best = port;
          break;
        }
        if (best < 0 || port < best) best = port;
      }
      next_port[static_cast<std::size_t>(c) * static_cast<std::size_t>(n) +
                static_cast<std::size_t>(dc)] =
          static_cast<std::int16_t>(best);
    }
  }
  // The new table is live for every cluster of the shard at once, but
  // each is rerouted in turn, and a reroute can cascade into a cluster
  // whose turn has not come: warn them all first (Cluster::routes_changing).
  for (int c = 0; c < n; ++c) {
    if (shard_of_cluster(c) != shard) continue;
    clusters_[static_cast<std::size_t>(c)]->routes_changing();
  }
  for (int c = 0; c < n; ++c) {
    if (shard_of_cluster(c) != shard) continue;
    clusters_[static_cast<std::size_t>(c)]->on_routes_changed();
  }
}

std::uint64_t Fabric::frames_dropped() const {
  std::uint64_t total = 0;
  for (const auto& l : links_) total += l->frames_dropped();
  for (const auto& c : clusters_) total += c->frames_dropped();
  return total;
}

std::unique_ptr<Fabric> Fabric::build(std::vector<sim::Simulator*> sims,
                                      sim::ShardRuntime* rt,
                                      TopologyKind topo, int stations,
                                      int stations_per_cluster,
                                      Params params) {
  // The plan: `leaves` station-bearing clusters, each spending its low
  // `trunk_ports` ports on trunk cables (cube dimensions or uplinks) and
  // the next `stations_per_cluster` on stations; fat trees add `spines`
  // clusters after the leaves.  Every check is always on (not assert): a
  // Release-built 4096-node misconfiguration must fail loudly, not
  // silently build a fabric whose station ports collide with trunk ports.
  const int ports = params.ports_per_cluster;
  int leaves = 1;
  int trunk_ports = 0;
  FatTreeShape fat;
  switch (topo) {
    case TopologyKind::kSingleCluster:
      if (stations < 1 || stations > ports) {
        throw std::invalid_argument(
            "hw::Fabric::single_cluster: " + std::to_string(stations) +
            " stations do not fit a " + std::to_string(ports) +
            "-port cluster (need 1 <= stations <= ports); use hypercube()/"
            "fat_tree() or raise FabricParams::ports_per_cluster");
      }
      stations_per_cluster = stations;
      break;
    case TopologyKind::kHypercube:
      if (stations < 1 || stations_per_cluster < 1) {
        throw std::invalid_argument(
            "hw::Fabric::hypercube: need stations >= 1 and "
            "stations_per_cluster >= 1 (got stations=" +
            std::to_string(stations) + ", stations_per_cluster=" +
            std::to_string(stations_per_cluster) + ")");
      }
      leaves = (stations + stations_per_cluster - 1) / stations_per_cluster;
      trunk_ports = dimension_of(static_cast<CubeLabel>(leaves));
      if (trunk_ports + stations_per_cluster > ports) {
        throw std::invalid_argument(
            "hw::Fabric::hypercube: cluster port budget exceeded — " +
            std::to_string(stations) + " stations at " +
            std::to_string(stations_per_cluster) + "/cluster need " +
            std::to_string(leaves) + " clusters (a " +
            std::to_string(trunk_ports) + "-dimension incomplete cube), so " +
            std::to_string(trunk_ports) + " cube ports + " +
            std::to_string(stations_per_cluster) + " station ports > the " +
            std::to_string(ports) +
            "-port cluster; raise FabricParams::ports_per_cluster (16 fits "
            "the 4096-node machine), raise stations_per_cluster, or lower "
            "the node count");
      }
      break;
    case TopologyKind::kFatTree:
      fat = FatTreeShape::plan(stations, stations_per_cluster, ports);
      leaves = fat.leaves;
      trunk_ports = fat.spines;
      break;
  }
  const int n_shards = static_cast<int>(sims.size());
  if (n_shards > leaves) {
    const std::string shape =
        topo == TopologyKind::kFatTree
            ? "a fat tree of " + std::to_string(leaves) +
                  " leaves; every shard needs a leaf"
            : "a " + std::to_string(leaves) +
                  "-cluster hypercube; every shard needs a cluster";
    throw std::invalid_argument(
        "hw::Fabric::make_sharded: " + std::to_string(n_shards) +
        " shards for " + shape + ", so use at most " +
        std::to_string(leaves) + " shards");
  }

  std::unique_ptr<Fabric> f(new Fabric(std::move(sims), params));
  f->topo_ = topo;
  f->fat_ = fat;
  const int n_clusters = leaves + fat.spines;
  if (n_shards > 1) {
    // Partitioning rule (DESIGN.md §12): station-bearing clusters in
    // contiguous blocks, one block per shard; fat-tree spines dealt
    // round-robin, so the top stage every shard's traffic crosses spreads
    // instead of piling onto the last shard.  Purely positional: the
    // assignment depends only on the topology, never on run order.
    f->cluster_shard_.reserve(static_cast<std::size_t>(n_clusters));
    for (int c = 0; c < leaves; ++c) {
      f->cluster_shard_.push_back(c * n_shards / leaves);
    }
    for (int sp = 0; sp < fat.spines; ++sp) {
      f->cluster_shard_.push_back(sp % n_shards);
    }
  }
  for (int c = 0; c < n_clusters; ++c) {
    // A spine is the "fat" upper stage: one wide crossbar with a port per
    // leaf (paper-era fat trees concentrate bandwidth upward; we model
    // the concentration as port count).
    f->clusters_.push_back(std::make_unique<Cluster>(
        f->cluster_sim(c), "c" + std::to_string(c),
        c < leaves ? ports : leaves));
    // The fabric is the computed oracle: no per-destination table to fill,
    // which is why routing state stays O(stations + clusters) at 4096
    // nodes (DESIGN.md §15).
    f->clusters_.back()->set_router(f.get(), c);
  }
  f->cable_at_.assign(static_cast<std::size_t>(n_clusters * ports), -1);
  const Link::Params trunk_p = params.cluster_link.value_or(params.link);
  if (topo == TopologyKind::kHypercube) {
    // Port d of cluster c carries dimension d; each pair is built once.
    for (int c = 0; c < leaves; ++c) {
      for (int d = 0; d < trunk_ports; ++d) {
        const int m = c ^ (1 << d);
        if (m > c && m < leaves) f->add_cable(rt, c, d, m, d, trunk_p);
      }
    }
  }
  for (int l = 0; l < leaves; ++l) {
    // Leaf l's uplink port sp <-> spine sp's port l.
    for (int sp = 0; sp < fat.spines; ++sp) {
      f->add_cable(rt, l, sp, leaves + sp, l, trunk_p);
    }
  }
  for (int s = 0; s < stations; ++s) {
    f->add_station(s / stations_per_cluster,
                   trunk_ports + s % stations_per_cluster);
  }
  if (n_shards > 1) {
    // Cap each shard's payload free lists in proportion to the stations
    // it hosts (floor 1024 so small shards still recycle): the
    // fabric-wide footprint tracks ~8 buffers/station instead of pinning
    // n_shards full-size free lists at 4096 nodes.  Unsharded and 1-shard
    // fabrics keep the classic default caps.
    std::vector<std::size_t> hosted(static_cast<std::size_t>(n_shards), 0);
    for (const int c : f->station_cluster_) {
      ++hosted[static_cast<std::size_t>(f->shard_of_cluster(c))];
    }
    for (std::size_t sh = 0; sh < hosted.size(); ++sh) {
      f->pools_[sh].set_max_free(std::max<std::size_t>(1024, hosted[sh] * 8));
    }
  }
  // Fault-time state stays unallocated until a shard's first fault.
  f->shard_edge_up_.resize(static_cast<std::size_t>(n_shards));
  f->fault_next_port_.resize(static_cast<std::size_t>(n_shards));
  return f;
}

std::unique_ptr<Fabric> Fabric::single_cluster(sim::Simulator& sim,
                                               int stations, Params params) {
  return build({&sim}, nullptr, TopologyKind::kSingleCluster, stations,
               stations, params);
}

std::unique_ptr<Fabric> Fabric::hypercube(sim::Simulator& sim, int stations,
                                          int stations_per_cluster,
                                          Params params) {
  return build({&sim}, nullptr, TopologyKind::kHypercube, stations,
               stations_per_cluster, params);
}

std::unique_ptr<Fabric> Fabric::fat_tree(sim::Simulator& sim, int stations,
                                         int stations_per_cluster,
                                         Params params) {
  return build({&sim}, nullptr, TopologyKind::kFatTree, stations,
               stations_per_cluster, params);
}

std::unique_ptr<Fabric> Fabric::make(sim::Simulator& sim, int stations,
                                     int stations_per_cluster, Params params) {
  return build({&sim}, nullptr, pick_shape(1, stations, params), stations,
               stations_per_cluster, params);
}

std::unique_ptr<Fabric> Fabric::make_sharded(sim::ShardRuntime& rt,
                                             int stations,
                                             int stations_per_cluster,
                                             Params params) {
  return build(rt.shards(), &rt, pick_shape(rt.num_shards(), stations, params),
               stations, stations_per_cluster, params);
}

int Fabric::cluster_of(StationId s) const {
  return station_cluster_.at(static_cast<std::size_t>(s));
}

void Fabric::add_multicast_group(std::uint64_t gid, StationId root,
                                 const std::vector<StationId>& members) {
  const int n_clusters = num_clusters();
  const int root_cluster = cluster_of(root);
  // Per-cluster replication set: union of the root->member unicast routes
  // (tree edges become inter-cluster ports; member clusters add the
  // members' local ports).  The walk computes hops through the topology
  // interface, so it is identical for the cube and the fat tree — and
  // always follows the deterministic routes: replication sets are static
  // switch configuration, independent of the unicast routing mode.
  std::vector<std::set<int>> ports(static_cast<std::size_t>(n_clusters));
  for (StationId m : members) {
    if (m == root) continue;  // the root's kernel delivers locally
    const int mc = cluster_of(m);
    int c = root_cluster;
    while (c != mc) {
      ports[static_cast<std::size_t>(c)].insert(inter_next_port(c, mc));
      c = inter_next_cluster(c, mc);
    }
    ports[static_cast<std::size_t>(mc)].insert(
        station_local_port_[static_cast<std::size_t>(m)]);
  }
  for (int c = 0; c < n_clusters; ++c) {
    if (!ports[static_cast<std::size_t>(c)].empty() || c == root_cluster) {
      clusters_[static_cast<std::size_t>(c)]->set_multicast_route(
          gid, std::vector<int>(ports[static_cast<std::size_t>(c)].begin(),
                                ports[static_cast<std::size_t>(c)].end()));
    }
  }
}

int Fabric::route_length(StationId a, StationId b) const {
  const int ca = cluster_of(a);
  const int cb = cluster_of(b);
  // Entry cluster + one cluster per inter-cluster hop, walked through the
  // topology interface (Hamming distance on the cube, <=2 trunk hops on
  // the tree).
  int len = 1;
  for (int c = ca; c != cb; c = inter_next_cluster(c, cb)) ++len;
  return len;
}

}  // namespace hpcvorx::hw
