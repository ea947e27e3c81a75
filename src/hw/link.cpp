#include "hw/link.hpp"

#include <algorithm>

namespace hpcvorx::hw {

void Link::split(sim::ShardRuntime& rt, int tx_shard, int rx_shard, Link& tx,
                 Link& rx) {
  assert(tx_shard != rx_shard);
  assert(&tx.sim_ == &rt.shard(tx_shard) && &rx.sim_ == &rt.shard(rx_shard));
  assert(tx.p_.latency == rx.p_.latency &&
         "the two halves of a split link must agree on its latency");
  rt.note_cross_shard_latency(tx.p_.latency);
  rt.register_exchange(rx_shard, &rx);
  rt.register_exchange(tx_shard, &tx);
  tx.peer_ = &rx;
  rx.peer_ = &tx;
  rx.rx_half_ = true;
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
  if (peer_ == nullptr) {
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
  peer_->inbox_.push_back({at, fault_epoch_, std::move(f)});
}

void Link::drain_into(sim::Simulator& dst) {
  // split() put this half on `dst`.  It outlives every event scheduled
  // here: it is owned by the Fabric, which outlives the runtime's run.
  assert(&dst == &sim_);
  for (Crossing& c : inbox_) {
    // The lookahead guarantee: everything queued during completed windows
    // arrives strictly beyond them, i.e. in this shard's future.
    assert(c.at > dst.now() &&
           "cross-shard traffic arrived at or before the drain point");
    if (c.epoch != fault_epoch_) {
      // The cable failed after this left: a frame on the wire is lost, and
      // a credit's slot was already reclaimed by set_down().
      if (rx_half_) ++frames_dropped_;
    } else if (rx_half_) {
      frames_.push_back(std::move(c.frame));
      land_at(c.at);
    } else {
      sim_.post_at(c.at, [this, e = fault_epoch_] {
        if (e == fault_epoch_) free_slot();
      });
    }
  }
  inbox_.clear();
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
  if (deliver_cb_) deliver_cb_();
}

std::optional<Frame> Link::take() {
  if (landed_ == 0) return std::nullopt;
  Frame f = frames_.pop_front();
  --landed_;
  sample_depth();
  if (peer_ != nullptr) {
    // RX half: the freed slot is reported to the TX half as a credit
    // taking effect one link latency from now (the reverse wire).
    peer_->inbox_.push_back({sim_.now() + p_.latency, fault_epoch_, {}});
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
