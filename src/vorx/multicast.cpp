#include "vorx/multicast.hpp"

#include <algorithm>
#include <cassert>

#include "vorx/process.hpp"

namespace hpcvorx::vorx {

Mcast::Mcast(McastService& svc, std::uint64_t gid,
             std::vector<hw::StationId> order, int my_pos, McastMode mode)
    : svc_(svc),
      gid_(gid),
      order_(std::move(order)),
      my_pos_(my_pos),
      mode_(mode),
      data_ev_(svc.kernel().simulator()),
      ack_ev_(svc.kernel().simulator()),
      wlock_(svc.kernel().simulator(), 1),
      track_("mcast.g" + std::to_string(gid)) {}

int Mcast::fanout_depth() const {
  if (mode_ == McastMode::kHardware) return 1;
  // Depth of the deepest member in the binary tree: floor(log2(n)) for n
  // members laid out heap-style (root at depth 0).
  int depth = 0;
  for (std::size_t last = order_.size(); last > 1; last /= 2) ++depth;
  return depth;
}

// Counts one software-made frame copy (root child send or tree forward)
// and samples the cumulative per-node value onto the group's track.
void Mcast::record_software_copy() {
  ++sw_copies_;
  sim::Simulator& sim = svc_.kernel().simulator();
  sim::CounterTimeline& ct = sim.counters();
  if (!ct.enabled()) return;
  ct.sample(track_, "sw_copies.s" + std::to_string(svc_.kernel().station()),
            sim.now(), static_cast<double>(sw_copies_));
}

// Records one network delivery at this member: latency is measured from
// the root's send time carried in Frame::aux (injected_at is re-stamped
// at every hop, so it cannot provide an end-to-end measurement).
void Mcast::record_delivery(const hw::Frame& f) {
  sim::Simulator& sim = svc_.kernel().simulator();
  const sim::Duration lat = sim.now() - static_cast<sim::SimTime>(f.aux);
  ++deliveries_;
  if (lat > delivery_latency_max_) delivery_latency_max_ = lat;
  sim::CounterTimeline& ct = sim.counters();
  if (!ct.enabled()) return;
  ct.sample(track_, "delivery_us.s" + std::to_string(svc_.kernel().station()),
            sim.now(), sim::to_usec(lat));
}

// Samples the group's replication-tree depth (constant per group/mode;
// one sample per root write keeps the track visible for the write's span).
void Mcast::sample_fanout_depth() {
  sim::Simulator& sim = svc_.kernel().simulator();
  sim::CounterTimeline& ct = sim.counters();
  if (!ct.enabled()) return;
  ct.sample(track_, "fanout_depth", sim.now(),
            static_cast<double>(fanout_depth()));
}

void Mcast::remove_member(hw::StationId dead) {
  assert(dead != order_[0] && "the root cannot be removed from its group");
  const auto it = std::find(order_.begin(), order_.end(), dead);
  if (it == order_.end()) return;  // already repaired
  order_.erase(it);
  const hw::StationId self = svc_.kernel().station();
  const auto me = std::find(order_.begin(), order_.end(), self);
  assert(me != order_.end() && "remove_member called on the dead member");
  my_pos_ = static_cast<int>(me - order_.begin());
  // Ack recount: a write blocked solely on the dead member's ack must
  // complete now that the expected-ack set shrank.  maybe_ack_up reads the
  // need from the repaired tree, so re-evaluating every pending sequence
  // (in seq order — deterministic) releases exactly the satisfied ones.
  std::vector<std::uint64_t> seqs;
  seqs.reserve(pending_.size());
  for (const auto& [seq, st] : pending_) seqs.push_back(seq);
  std::sort(seqs.begin(), seqs.end());
  for (std::uint64_t seq : seqs) svc_.maybe_ack_up(this, seq);
}

std::vector<hw::StationId> Mcast::children() const {
  std::vector<hw::StationId> out;
  for (int c : {2 * my_pos_ + 1, 2 * my_pos_ + 2}) {
    if (static_cast<std::size_t>(c) < order_.size()) {
      out.push_back(order_[static_cast<std::size_t>(c)]);
    }
  }
  return out;
}

sim::Task<void> Mcast::write(Subprocess& sp, std::uint32_t bytes,
                             hw::Payload data) {
  assert(is_root() && "only the group root writes");
  const CostModel& c = svc_.kernel().costs();
  co_await wlock_.acquire();  // flow control: one multicast in flight
  const std::uint64_t seq = ++next_seq_;
  // The root is also a member: deliver locally, then fan out.
  co_await sp.run_system(c.chan_write_fixed +
                         static_cast<sim::Duration>(bytes) *
                             c.chan_write_per_byte);
  rxq_.push_back(ChannelMsg{bytes, data, seq, svc_.kernel().station()});
  data_ev_.set();
  pending_[seq].data_seen = true;
  // Root send time, carried end to end in Frame::aux so every member can
  // measure its own delivery latency against the same origin.
  const auto sent_at =
      static_cast<std::uint64_t>(svc_.kernel().simulator().now());
  sample_fanout_depth();
  if (mode_ == McastMode::kHardware) {
    // One frame; the clusters replicate it to every member (§4.2's
    // hardware-efficient multicast).  Acks still flow back in software.
    hw::Frame f;
    f.kind = msg::kMcastData;
    f.obj = gid_;
    f.group = gid_;
    f.seq = seq;
    f.aux = sent_at;
    f.dst = -1;
    f.payload_bytes = bytes;
    f.data = data;
    svc_.kernel().send(std::move(f));
  } else {
    for (hw::StationId child : children()) {
      hw::Frame f;
      f.kind = msg::kMcastData;
      f.obj = gid_;
      f.seq = seq;
      f.aux = sent_at;
      f.dst = child;
      f.payload_bytes = bytes;
      f.data = data;
      svc_.kernel().send(std::move(f));
      record_software_copy();
    }
  }
  const bool expect_acks = mode_ == McastMode::kHardware
                               ? order_.size() > 1
                               : !children().empty();
  if (!expect_acks) {
    pending_.erase(seq);
  } else {
    ack_ev_.reset();
    sp.set_state(SpState::kBlockedOutput);
    {
      BlockedScope blocked(svc_.census(), BlockReason::kOutput);
      co_await ack_ev_.wait();
    }
    sp.set_state(SpState::kRunning);
    co_await sp.run_system(c.chan_ack_fixed + c.chan_wakeup);
  }
  wlock_.release();
}

sim::Task<ChannelMsg> Mcast::read(Subprocess& sp) {
  const CostModel& c = svc_.kernel().costs();
  co_await sp.run_system(c.chan_read_fixed);
  while (rxq_.empty()) {
    data_ev_.reset();
    if (!rxq_.empty()) break;
    sp.set_state(SpState::kBlockedInput);
    {
      BlockedScope blocked(svc_.census(), BlockReason::kInput);
      co_await data_ev_.wait();
    }
    sp.set_state(SpState::kRunning);
  }
  ChannelMsg m = std::move(rxq_.front());
  rxq_.pop_front();
  co_return m;
}

McastService::McastService(Kernel& kernel, NodeCensus& census)
    : kernel_(kernel), census_(census) {
  kernel_.register_handler(msg::kMcastData,
                           [this](const hw::Frame& f) { on_data(f); });
  kernel_.register_handler(msg::kMcastAck,
                           [this](const hw::Frame& f) { on_ack(f); });
}

Mcast* McastService::create_group(std::uint64_t gid,
                                  std::vector<hw::StationId> members,
                                  hw::StationId root, McastMode mode) {
  // Tree order: the root first, remaining members in list order.
  std::vector<hw::StationId> order;
  order.push_back(root);
  for (hw::StationId m : members) {
    if (m != root) order.push_back(m);
  }
  const hw::StationId self = kernel_.station();
  const auto it = std::find(order.begin(), order.end(), self);
  assert(it != order.end() && "this node is not a group member");
  const int pos = static_cast<int>(it - order.begin());
  auto [entry, inserted] = groups_.emplace(
      gid, std::unique_ptr<Mcast>(new Mcast(*this, gid, order, pos, mode)));
  assert(inserted && "group id already exists on this node");
  (void)inserted;
  return entry->second.get();
}

void McastService::on_data(hw::Frame f) {
  auto it = groups_.find(f.obj);
  if (it == groups_.end()) return;
  deliver(it->second.get(), std::move(f));
}

sim::Proc McastService::deliver(Mcast* g, hw::Frame f) {
  const CostModel& c = kernel_.costs();
  // File the message locally.
  co_await kernel_.cpu().run(sim::prio::kKernel, c.chan_deliver_fixed,
                             sim::Category::kSystem, sim::kBorrowedContext, 0);
  g->rxq_.push_back(ChannelMsg{f.payload_bytes, f.data, f.seq, f.src});
  g->data_ev_.set();
  g->record_delivery(f);
  if (g->mode_ == McastMode::kHardware) {
    // The switches delivered everyone's copy; just acknowledge the root.
    g->pending_[f.seq].data_seen = true;
    send_ack(g, f.seq);
    g->pending_.erase(f.seq);
    co_return;
  }
  // Forward down the tree (copy-through: per-child kernel send cost).
  for (hw::StationId child : g->children()) {
    co_await kernel_.cpu().run(
        sim::prio::kKernel,
        c.chan_write_fixed + static_cast<sim::Duration>(f.payload_bytes) *
                                 c.chan_write_per_byte,
        sim::Category::kSystem, sim::kBorrowedContext, 0);
    hw::Frame fwd;
    fwd.kind = msg::kMcastData;
    fwd.obj = g->gid_;
    fwd.seq = f.seq;
    fwd.aux = f.aux;  // keep the root's send time for downstream members
    fwd.dst = child;
    fwd.payload_bytes = f.payload_bytes;
    fwd.data = f.data;
    kernel_.send(std::move(fwd));
    ++forwarded_;
    g->record_software_copy();
  }
  g->pending_[f.seq].data_seen = true;
  maybe_ack_up(g, f.seq);
}

void McastService::on_ack(hw::Frame f) {
  auto it = groups_.find(f.obj);
  if (it == groups_.end()) return;
  Mcast* g = it->second.get();
  ++g->pending_[f.seq].child_acks;
  maybe_ack_up(g, f.seq);
}

void McastService::maybe_ack_up(Mcast* g, std::uint64_t seq) {
  auto it = g->pending_.find(seq);
  if (it == g->pending_.end()) return;
  const Mcast::SeqState& st = it->second;
  const int need = g->mode_ == McastMode::kHardware
                       ? static_cast<int>(g->order_.size()) - 1
                       : static_cast<int>(g->children().size());
  if (!st.data_seen || st.child_acks < need) return;
  g->pending_.erase(it);
  if (g->is_root()) {
    g->ack_ev_.set();
    return;
  }
  send_ack(g, seq);
}

sim::Proc McastService::send_ack(Mcast* g, std::uint64_t seq) {
  co_await kernel_.cpu().run(sim::prio::kKernel,
                             kernel_.costs().chan_deliver_fixed / 2,
                             sim::Category::kSystem, sim::kBorrowedContext, 0);
  hw::Frame ack;
  ack.kind = msg::kMcastAck;
  ack.obj = g->gid_;
  ack.seq = seq;
  // Hardware mode acknowledges the root directly; the software tree
  // aggregates through parents.
  ack.dst = g->mode_ == McastMode::kHardware ? g->order_[0] : g->parent();
  kernel_.send(std::move(ack));
}

}  // namespace hpcvorx::vorx
