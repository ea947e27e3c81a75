// Flow-controlled multicast (§4.2, and Katseff, "Flow-Controlled Multicast
// in Multiprocessor Systems", 1987).
//
// "many programmers design their applications to make use of a multicast
// mechanism in which each process sends the identical message to many
// other processors.  We therefore designed the HPC hardware to be able to
// implement multicast efficiently and devised a flow-controlled multicast
// primitive that is integrated with channels."
//
// The primitive here distributes a message down a binary spanning tree of
// the group's kernels (each hop is ordinary reliable HPC unicast) and
// aggregates acknowledgements back up the tree; the root's write completes
// only when every member has buffered the message — that is the flow
// control: a second multicast cannot overrun anyone.
//
// Group membership is established at application start-up from the
// allocated processors (the paper's own limited use case: "it may be
// necessary for a process to multicast initial values to all the other
// processes when the application is first started"), so groups are created
// directly on each member node rather than through a naming rendezvous.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/awaitables.hpp"
#include "sim/task.hpp"
#include "vorx/census.hpp"
#include "vorx/channel.hpp"
#include "vorx/kernel.hpp"

namespace hpcvorx::vorx {

class Subprocess;
class McastService;

enum class McastMode {
  kSoftwareTree,  // kernels forward copies down a binary tree (portable)
  kHardware,      // clusters replicate the frame in the switches (§4.2)
};

/// One member's handle on a multicast group.  The root member writes; all
/// members (including the root) read every message.
class Mcast {
 public:
  /// Flow-controlled write (root only): completes when every member's
  /// kernel has buffered the message.
  [[nodiscard]] sim::Task<void> write(Subprocess& sp, std::uint32_t bytes,
                                      hw::Payload data = nullptr);

  /// Blocking read of the next multicast message.
  [[nodiscard]] sim::Task<ChannelMsg> read(Subprocess& sp);

  /// Group repair after member loss (§3.1's recovery story, DESIGN.md
  /// §14): drops `dead` from the tree order and re-evaluates every pending
  /// write against the shrunken ack set — a root blocked solely on the
  /// dead member's ack completes.  Every surviving member must apply the
  /// same removal (same contract as create_group), at a point where the
  /// dead member's subtree holds no undelivered data (it is a leaf, or its
  /// descendants already received the in-flight message).  Idempotent;
  /// removing the root is not supported.
  void remove_member(hw::StationId dead);

  [[nodiscard]] std::uint64_t gid() const { return gid_; }
  [[nodiscard]] bool is_root() const { return my_pos_ == 0; }
  [[nodiscard]] std::size_t member_count() const { return order_.size(); }

  // ---- per-group observability (§4.2: receiver processing, not wire
  // time, dominates multicast delivery — these counters show it) ----

  /// Frame copies this node's kernel made for the group in software: the
  /// root's per-child sends plus tree forwards in deliver().  Hardware
  /// mode makes its copies in the switches (hw::Cluster::multicast_copies)
  /// so this stays 0 there beyond nothing — exactly the §4.2 contrast.
  [[nodiscard]] std::uint64_t software_copies() const { return sw_copies_; }
  /// Messages delivered to this member over the network (the root's local
  /// filing is not counted — its delivery time is zero by construction).
  [[nodiscard]] std::uint64_t deliveries() const { return deliveries_; }
  /// Max of root-send-to-member-delivery virtual time, over every network
  /// delivery at this member.  The root's send time rides in Frame::aux
  /// (injected_at is re-stamped per hop and cannot be used).
  [[nodiscard]] sim::Duration delivery_latency_max() const {
    return delivery_latency_max_;
  }
  /// Replication-tree depth a message crosses to reach the farthest
  /// member: floor(log2(n)) kernel hops for the software binary tree,
  /// 1 in-switch hop for hardware replication.
  [[nodiscard]] int fanout_depth() const;

 private:
  friend class McastService;
  Mcast(McastService& svc, std::uint64_t gid, std::vector<hw::StationId> order,
        int my_pos, McastMode mode);

  void record_software_copy();
  void record_delivery(const hw::Frame& f);
  void sample_fanout_depth();

  [[nodiscard]] hw::StationId parent() const {
    return order_[static_cast<std::size_t>((my_pos_ - 1) / 2)];
  }
  [[nodiscard]] std::vector<hw::StationId> children() const;

  McastService& svc_;
  std::uint64_t gid_;
  std::vector<hw::StationId> order_;  // members, root first (tree order)
  int my_pos_;
  McastMode mode_;

  std::deque<ChannelMsg> rxq_;
  sim::Event data_ev_;
  sim::Event ack_ev_;      // root: current write fully acknowledged
  sim::Semaphore wlock_;   // one multicast in flight per group
  std::uint64_t next_seq_ = 0;

  struct SeqState {
    bool data_seen = false;
    int child_acks = 0;
  };
  std::unordered_map<std::uint64_t, SeqState> pending_;

  std::string track_;  // CounterTimeline track ("mcast.g<gid>"), cached
  std::uint64_t sw_copies_ = 0;
  std::uint64_t deliveries_ = 0;
  sim::Duration delivery_latency_max_ = 0;
};

/// Per-node multicast machinery (forwarding + ack aggregation).
class McastService {
 public:
  McastService(Kernel& kernel, NodeCensus& census);

  /// Creates this node's member handle for group `gid`.  Every member must
  /// call with the identical member list and root.  For kHardware the
  /// fabric's replication tables must be programmed too
  /// (hw::Fabric::add_multicast_group / vorx::System::create_multicast_group).
  Mcast* create_group(std::uint64_t gid, std::vector<hw::StationId> members,
                      hw::StationId root,
                      McastMode mode = McastMode::kSoftwareTree);

  [[nodiscard]] Kernel& kernel() { return kernel_; }
  [[nodiscard]] NodeCensus& census() { return census_; }
  [[nodiscard]] std::uint64_t frames_forwarded() const { return forwarded_; }

 private:
  friend class Mcast;
  void on_data(hw::Frame f);
  void on_ack(hw::Frame f);
  sim::Proc deliver(Mcast* g, hw::Frame f);
  void maybe_ack_up(Mcast* g, std::uint64_t seq);
  sim::Proc send_ack(Mcast* g, std::uint64_t seq);

  Kernel& kernel_;
  NodeCensus& census_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Mcast>> groups_;
  std::uint64_t forwarded_ = 0;
};

}  // namespace hpcvorx::vorx
