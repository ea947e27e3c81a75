// A self-routing HPC cluster: a 12-port star switch.
//
// §1 of the paper: "The HPC consists of several self-routing star networks
// called clusters, each of which contains twelve ports.  A port contains
// independent input and output sections that simultaneously run at
// 160 Mbit/sec and can connect to either a workstation, a processing node,
// or to another cluster."
//
// The switch is input-buffered (each incoming link's downstream buffer is
// the port's input fifo) and forwards whole frames.  Every output port has
// a round-robin arbiter over the input ports — the "fair hardware
// scheduling mechanism [that] ensures that every sender is eventually
// serviced" (§2).  Routing is computed: the Fabric supplies a route
// function (topology next-hop — e-cube, fat-tree up/down, adaptive — plus
// local station delivery) and the cluster resolves it once per head frame,
// caching the decision until that head is consumed.  The sticky cache is
// what makes occupancy-dependent (adaptive) decisions well defined: a head
// commits to one egress port and waits there, exactly like a self-routing
// switch that latched the route nibble, instead of flapping between ports
// as queue depths change (DESIGN.md §15).
//
// Hardware arbitrates all outputs in parallel; the simulator arbitrates one
// output per ready event, so it keeps per-output request masks (one bit per
// input whose head wants that output) and visits only the inputs an
// output-ready can change, in exact round-robin order (DESIGN.md §15,
// "Request-mask arbitration").
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "hw/link.hpp"

namespace hpcvorx::hw {

inline constexpr int kClusterPorts = 12;

class Cluster final : public LinkConsumer {
 public:
  Cluster(sim::Simulator& sim, std::string name, int num_ports = kClusterPorts);
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Attaches the incoming link whose downstream buffer is this port's
  /// input fifo.  The cluster becomes the link's receiver.
  void attach_in(int port, Link* in);

  /// Attaches the outgoing link transmitted by this port.  The cluster
  /// becomes the link's sender, and is its only one.
  void attach_out(int port, Link* out);

  /// Candidate mask of a route whose alternatives include a port >= 64.
  static constexpr std::uint64_t kAnyPort = ~std::uint64_t{0};

  /// One routing decision for a unicast head.  `port` is the egress port,
  /// or -1 ("unreachable", see route drops below) when fault-time
  /// rerouting finds no surviving path.  An occupancy-dependent decision
  /// also reports its alternatives: bit q of `candidates` for every port q
  /// it could pick (kAnyPort when one is >= 64), and the `escape` port it
  /// picks when none of them can accept a frame.  `candidates` == 0 marks
  /// a fixed decision — re-resolving it always yields `port` again.
  struct Route {
    int port = -1;
    std::uint64_t candidates = 0;
    int escape = -1;
  };

  /// The Fabric-supplied routing oracle.  Evaluated once per head frame
  /// per input port; the cached decision is invalidated when the head is
  /// consumed, ripped up, or routes change (on_routes_changed).  It may
  /// read output readiness (port_ready) and queue depths, nothing else
  /// that changes.
  using RouteFn = std::function<Route(const Frame&)>;
  void set_route_fn(RouteFn fn) { route_fn_ = std::move(fn); }

  /// Rip-up (adaptive routing only, DESIGN.md §15): when an output port
  /// becomes ready and an input's head is committed to a port that cannot
  /// accept a frame right now, retire the cached decision and re-resolve
  /// against current occupancy.  Without this a head can pin itself to one
  /// full port inside a buffer-wait cycle and deadlock the fabric; with it
  /// a head moves as soon as *any* of its candidate ports drains.  Off
  /// (the default) a head's first decision is final — deterministic
  /// routing never needs a second look.  The arbiter skips rip-ups the
  /// Route contract proves are no-ops: a fixed decision, or one already on
  /// its escape port while none of its candidates is ready.
  void set_reroute_blocked_heads(bool on) { reroute_blocked_ = on; }

  /// Programs the replication set for hardware-multicast group `gid`: the
  /// output ports a group frame leaves through (tree children and/or
  /// local member stations).  Heads of the group already waiting follow
  /// the new set.
  void set_multicast_route(std::uint64_t gid, std::vector<int> out_ports);

  [[nodiscard]] int num_ports() const { return static_cast<int>(outs_.size()); }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// The outgoing link on `port` (nullptr when unattached).  Adaptive
  /// routing reads egress queue depths through this.
  [[nodiscard]] const Link* out_link(int port) const {
    return outs_.at(static_cast<std::size_t>(port)).link;
  }

  /// Whether output `port` can accept a frame now: the arbiter's mirror of
  /// out_link(port)->ready() (false when unattached).  Exact whenever a
  /// route function runs — see the sync points in cluster.cpp.
  [[nodiscard]] bool port_ready(int port) const {
    return test(ready_mask(), port);
  }

  // ---- fault injection (DESIGN.md §14) ----

  /// Power-cycles the switch: every frame parked in an input fifo is lost
  /// (counted in frames_dropped) and the arbiter state resets.  Routing
  /// tables survive — they are fabric-programmed configuration, not
  /// volatile switch state.
  void restart();

  /// The route function is about to change under live traffic, and other
  /// clusters may be rerouted (and cascade into this one) before this
  /// one's on_routes_changed(): until then every queued head is revisited
  /// on each arbitration, since its cached decision may no longer match
  /// the route function.  Also resynchronizes port readiness after links
  /// went down.
  void routes_changing();

  /// Routes changed under live traffic (fault-time rerouting): drops input
  /// heads that became unroutable and kicks every output arbiter so heads
  /// that now route to a previously-idle port start moving.
  void on_routes_changed();

  /// Frames lost to restart() or to an unreachable destination (a -1
  /// route).  Dropped frames are never counted as forwarded.
  [[nodiscard]] std::uint64_t frames_dropped() const { return frames_dropped_; }

  // ---- counters (diagnostics and the trace exporter) ----
  //
  // Replica-accounting invariant (tested by hw_cluster_test.cpp): a
  // multicast frame replicated to k output ports counts k in
  // frames_forwarded *and* k x wire_bytes in bytes_forwarded — one unit
  // per physical copy leaving the switch, exactly like k unicast frames —
  // and the same k is attributed to the frame's group in
  // multicast_copies(gid).  Hence
  //   frames_forwarded == unicast forwards + multicast_copies_total().

  /// Frames forwarded through this cluster (multicast replicas counted
  /// once per output port).
  [[nodiscard]] std::uint64_t frames_forwarded() const { return forwarded_; }
  /// Wire bytes forwarded (same replica accounting as frames_forwarded).
  [[nodiscard]] std::uint64_t bytes_forwarded() const { return bytes_fwd_; }
  /// In-switch replicas made for hardware-multicast group `gid` (§4.2's
  /// "the clusters replicate the frame in the switches"): one count per
  /// output port each group frame was copied to.
  [[nodiscard]] std::uint64_t multicast_copies(std::uint64_t gid) const {
    const auto it = mcast_copies_.find(gid);
    return it == mcast_copies_.end() ? 0 : it->second;
  }
  /// In-switch replicas summed over every group.
  [[nodiscard]] std::uint64_t multicast_copies_total() const {
    return mcast_copies_total_;
  }
  /// Total time frames spent blocked at the head of an input fifo waiting
  /// for their output port (head-of-line time, summed over input ports).
  [[nodiscard]] sim::Duration head_of_line_blocked() const {
    return hol_blocked_;
  }

 private:
  struct Input {
    Link* link = nullptr;
    sim::SimTime hol_since = -1;  // head-wait start (-1 idle)
    Route route;                  // cached head decision...
    bool route_ok = false;        // ...valid while set
    int row = -1;                 // request row holding this input (unicast)
    const std::vector<int>* mcast = nullptr;  // replication rows holding it
  };
  struct Output {
    Link* link = nullptr;
    int rr_next = 0;  // round-robin cursor over the inputs
    // Reentrancy holds: taking an input frame frees an upstream buffer
    // slot, and that notification can cascade around a full-duplex cable
    // pair back into this switch before the take returns.  A held output
    // refuses nested arbitration so the cascade cannot steal the slot
    // between a forwarding path's ready-check and its send; the holder
    // rescans (or the next link event re-kicks), so suppressed calls lose
    // nothing.
    int hold = 0;
    // Claims: a forward has checked the port's free slot and will send on
    // it once its input take returns.  Nested replications must not take
    // that slot (they are not held off like unicast arbitration).
    int claim = 0;
  };

  [[nodiscard]] static bool test(const std::uint64_t* set, int i) {
    return ((set[static_cast<std::size_t>(i) / 64] >> (i % 64)) & 1u) != 0;
  }
  // The mask sets, each words_ long, in masks_:
  //   row(q)    inputs whose head wants output q (unicast decision, or q in
  //             the multicast head's replication set);
  //   pending   inputs visited on every walk: a head not yet resolved or
  //             registered (or whose cached decision may be stale);
  //   movable   unicast heads with alternatives (candidates != 0) while
  //             rip-up is on;
  //   ready     outputs that can accept a frame now;
  //   walk      the candidate set of the arbitration in progress.
  [[nodiscard]] std::uint64_t* row(int out) {
    return &masks_[static_cast<std::size_t>(out) * words_];
  }
  [[nodiscard]] std::uint64_t* pending() { return row(num_ports()); }
  [[nodiscard]] std::uint64_t* movable() { return row(num_ports() + 1); }
  [[nodiscard]] std::uint64_t* ready_mask() { return row(num_ports() + 2); }
  [[nodiscard]] const std::uint64_t* ready_mask() const {
    return &masks_[static_cast<std::size_t>(num_ports() + 2) * words_];
  }
  [[nodiscard]] std::uint64_t* walk() { return row(num_ports() + 3); }

  /// Output port for the head frame of `in_port`, resolved through the
  /// route function at most once per head (sticky cache; see above) and
  /// registered in that port's request row.  -1 when this cluster has no
  /// surviving route to the head's dst (possible only after fault-time
  /// rerouting; the caller drops).
  [[nodiscard]] int head_route(int in_port);
  /// Replication set of `head` (input `in_port`'s multicast head),
  /// registering the input in the set's rows on first touch.
  const std::vector<int>& mcast_ports(int in_port, const Frame& head);
  void unregister(int in_port);
  // The links' consumer interface: an output link on `port` may have
  // become ready, or a frame landed in the input link on `port`.
  void link_ready(int port) override { try_output(port); }
  void link_delivered(int port) override { on_input(port); }
  void set_port_ready(int port, bool ready);
  void resync_ready();
  /// walk() := row(out) | pending | blocked heads whose rip-up can move.
  void collect_candidates(int out_port);
  /// First offset >= `from` (from the cursor `start`) in walk(); n if none.
  [[nodiscard]] int next_candidate(int start, int from);
  /// Replicates `in_port`'s multicast head if every port of its set can
  /// take it; returns whether the head was consumed.
  bool forward_head(int in_port);
  /// Serves `in_port`'s current head, if any: a multicast head tries its
  /// replication, an unroutable unicast head is dropped, and a routable
  /// one kicks its output's arbiter unless that output is `skip_out`
  /// (the arbiter already running).
  void serve_head(int in_port, int skip_out = -1);
  void on_input(int in_port);
  void try_output(int out_port);
  Frame take_input(int in_port);   // take + head-of-line accounting
  void drop_head(int in_port);     // take + count as dropped
  /// Drops consecutive unroutable unicast heads of `in_port`.
  void drop_unroutable(int in_port);
  void sample_forwarded();
  void sample_mcast_copies(std::uint64_t gid);

  sim::Simulator& sim_;
  std::string name_;
  std::vector<Input> ins_;
  std::vector<Output> outs_;
  std::size_t words_;                 // 64-bit words per mask set
  std::vector<std::uint64_t> masks_;  // the mask sets above, one allocation
  RouteFn route_fn_;
  bool reroute_blocked_ = false;      // rip-up blocked heads (adaptive)
  std::unordered_map<std::uint64_t, std::vector<int>> mcast_routes_;
  std::unordered_map<std::uint64_t, std::uint64_t> mcast_copies_;
  std::uint64_t mcast_copies_total_ = 0;
  std::uint64_t forwarded_ = 0;
  std::uint64_t bytes_fwd_ = 0;
  std::uint64_t frames_dropped_ = 0;
  sim::Duration hol_blocked_ = 0;
};

}  // namespace hpcvorx::hw
