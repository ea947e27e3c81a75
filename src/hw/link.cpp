#include "hw/link.hpp"

#include <algorithm>
#include <vector>

#include "sim/shard_runtime.hpp"

namespace hpcvorx::hw {

// What only a split half needs: the other half, which half this is, and
// the cross-shard messages bound for this half — frames on an RX half,
// credits (no frame) on a TX half.  Its producer appends only while
// running a window and drain_into() runs between the round's two barrier
// phases, so the round barrier orders every append before the drain that
// reads it.  The inbox, which the other shard's thread writes during a
// window, has a cache line to itself: the owner's sends read `peer` on
// the line before it at the same time.
struct Link::Split final : sim::ShardExchange {
  struct Crossing {
    sim::SimTime at;
    std::uint32_t epoch;
    Frame frame;
  };

  Split(Link& self, Link& peer, bool rx_half)
      : self(self), peer(peer), rx_half(rx_half) {}

  // Most rounds bring a half nothing: an empty inbox is one size check on
  // this object, without touching the link.
  void drain_into(sim::Simulator& dst) override {
    if (!inbox.empty()) self.drain_inbox(dst);
  }

  Link& self;
  Link& peer;
  bool rx_half;
  alignas(64) std::vector<Crossing> inbox;
};

Link::Link(sim::Simulator& sim, std::string name, Params p)
    : sim_(sim), name_(std::move(name)), p_(p),
      frames_(static_cast<std::size_t>(p.buffer_frames)) {
  assert(p_.buffer_frames >= 1);
}

Link::~Link() = default;

void Link::split(sim::ShardRuntime& rt, int tx_shard, int rx_shard, Link& tx,
                 Link& rx) {
  assert(tx_shard != rx_shard);
  assert(&tx.sim_ == &rt.shard(tx_shard) && &rx.sim_ == &rt.shard(rx_shard));
  assert(tx.p_.latency == rx.p_.latency &&
         "the two halves of a split link must agree on its latency");
  assert(tx.split_ == nullptr && rx.split_ == nullptr);
  tx.split_ = std::make_unique<Split>(tx, rx, /*rx_half=*/false);
  rx.split_ = std::make_unique<Split>(rx, tx, /*rx_half=*/true);
  rt.note_cross_shard_latency(tx.p_.latency);
  rt.register_exchange(rx_shard, rx.split_.get());
  rt.register_exchange(tx_shard, tx.split_.get());
}

Link* Link::peer() const {
  return split_ == nullptr ? nullptr : &split_->peer;
}

void Link::send(Frame f) {
  assert(ready() && "Link::send called while not ready");
  tx_busy_ = true;
  ++reserved_;
  const sim::Duration ser =
      static_cast<sim::Duration>(f.wire_bytes()) * p_.ns_per_byte;
  // Transmitter frees after serialization; the frame lands one propagation
  // latency later.  Both completion events carry the fault epoch: a
  // set_down() between send and completion bumps it and the stale event
  // no-ops (the fault path already reset tx_busy_ / dropped the frame).
  sim_.post_after(ser, [this, e = fault_epoch_] {
    if (e != fault_epoch_) return;
    tx_busy_ = false;
    notify_ready();
  });
  const sim::SimTime at = sim_.now() + ser + p_.latency;
  if (split_ == nullptr) {
    frames_.push_back(std::move(f));
    land_at(at);
    return;
  }
  // Cross-shard TX half: hand the frame to the RX half's inbox now — the
  // RX shard must drain it at the end of the window that sent it, not one
  // latency later, or it would land a window too late.
  if (f.data != nullptr) {
    // Detach from the TX shard's FramePool: the pooled buffer's deleter
    // is not thread-safe, so the crossing frame carries a plain copy the
    // destination shard may drop on its own thread.
    // vorx-lint: allow(R5) cross-shard boundary copy — pooled payloads may not change shards
    f.data = make_payload(std::vector<std::byte>(f.data->begin(), f.data->end()));
  }
  split_->peer.split_->inbox.push_back({at, fault_epoch_, std::move(f)});
}

void Link::drain_inbox(sim::Simulator& dst) {
  // split() put this half on `dst`.  It outlives every event scheduled
  // here: it is owned by the Fabric, which outlives the runtime's run.
  assert(&dst == &sim_);
  const bool rx_half = split_->rx_half;
  for (Split::Crossing& c : split_->inbox) {
    // The lookahead guarantee: everything queued during completed windows
    // arrives strictly beyond them, i.e. in this shard's future.
    assert(c.at > dst.now() &&
           "cross-shard traffic arrived at or before the drain point");
    if (c.epoch != fault_epoch_) {
      // The cable failed after this left: a frame on the wire is lost, and
      // a credit's slot was already reclaimed by set_down().
      if (rx_half) ++frames_dropped_;
    } else if (rx_half) {
      frames_.push_back(std::move(c.frame));
      land_at(c.at);
    } else {
      sim_.post_at(c.at, [this, e = fault_epoch_] {
        if (e == fault_epoch_) free_slot();
      });
    }
  }
  split_->inbox.clear();
}

void Link::set_down() {
  if (down_) return;
  down_ = true;
  ++fault_epoch_;
  tx_busy_ = false;
  frames_dropped_ += frames_.size();
  frames_.clear();
  landed_ = 0;
  reserved_ = 0;
}

void Link::set_up() {
  if (!down_) return;
  down_ = false;
  ++fault_epoch_;
  tx_busy_ = false;
  notify_ready();
}

void Link::deliver_head() {
  const Frame& f = frames_[landed_];
  ++frames_carried_;
  bytes_carried_ += f.wire_bytes();
  ++landed_;
  peak_buffered_ = std::max(peak_buffered_, landed_);
  sample_depth();
  if (receiver_ != nullptr) receiver_->link_delivered(receiver_port_);
}

std::optional<Frame> Link::take() {
  if (landed_ == 0) return std::nullopt;
  Frame f = frames_.pop_front();
  --landed_;
  sample_depth();
  if (split_ != nullptr) {
    // RX half: the freed slot is reported to the TX half as a credit
    // taking effect one link latency from now (the reverse wire).
    split_->peer.split_->inbox.push_back(
        {sim_.now() + p_.latency, fault_epoch_, {}});
  } else {
    free_slot();
  }
  return f;
}

void Link::sample_depth() {
  sim::CounterTimeline& ct = sim_.counters();
  if (!ct.enabled()) return;
  ct.sample(name_, "buffered_frames", sim_.now(),
            static_cast<double>(landed_));
  ct.sample(name_, "kbytes_carried", sim_.now(),
            static_cast<double>(bytes_carried_) / 1e3);
}

}  // namespace hpcvorx::hw
