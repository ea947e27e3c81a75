#include "hw/link.hpp"

#include <algorithm>

namespace hpcvorx::hw {

void Link::split(sim::ShardRuntime& rt, int tx_shard, int rx_shard, Link& tx,
                 Link& rx) {
  assert(tx_shard != rx_shard);
  assert(tx.p_.latency == rx.p_.latency &&
         "the two halves of a split link must agree on its latency");
  rt.note_cross_shard_latency(tx.p_.latency);
  rt.register_exchange(rx_shard, &rx);
  rt.register_exchange(tx_shard, &tx);
  tx.peer_ = &rx;
  rx.peer_ = &tx;
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
  if (peer_ != nullptr) {
    // Cross-shard TX half: hand the frame to the RX half's inbox now — the
    // RX shard must drain it at the end of the window that sent it, not one
    // latency later, or it would land a window too late.  Carried counters
    // tick here; the RX half counts nothing, so a split link's totals
    // match its intra-shard equivalent.
    ++frames_carried_;
    bytes_carried_ += f.wire_bytes();
    if (f.data != nullptr) {
      // Detach from the TX shard's FramePool: the pooled buffer's deleter
      // is not thread-safe, so the crossing frame carries a plain copy the
      // destination shard may drop on its own thread.
      // vorx-lint: allow(R5) cross-shard boundary copy — pooled payloads may not change shards
      f.data = make_payload(std::vector<std::byte>(f.data->begin(), f.data->end()));
    }
    peer_->inbox_.emplace_back(sim_.now() + ser + p_.latency,
                               std::make_unique<Frame>(std::move(f)));
    return;
  }
  frames_.push_back(std::move(f));
  sim_.post_after(ser + p_.latency, [this, e = fault_epoch_] {
    if (e != fault_epoch_) return;
    deliver_head();
  });
}

void Link::drain_into(sim::Simulator& dst) {
  // This half outlives every event scheduled here: it is owned by the
  // Fabric, which outlives the runtime's run.  A frame rides its event as
  // owned state.
  for (auto& e : inbox_) {
    // The lookahead guarantee: everything queued during completed windows
    // arrives strictly beyond them, i.e. in this shard's future.
    assert(e.first > dst.now() &&
           "cross-shard traffic arrived at or before the drain point");
    if (e.second != nullptr) {
      dst.post_at(e.first, [this, f = std::move(e.second)]() mutable {
        deliver_remote(std::move(*f));
      });
    } else {
      dst.post_at(e.first, [this] { remote_credit(); });
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
  // RX half: every cleared buffer slot is reported back as a credit, or
  // the TX half's slot accounting would leak the lost frames' slots.  (A
  // TX half's buffer is always empty.)
  if (peer_ != nullptr) {
    for (std::size_t i = 0; i < landed_; ++i) credit_peer();
  }
  frames_.clear();
  landed_ = 0;
  // TX half: the peer RX clears its buffer (and drops late arrivals) at
  // the same virtual time, so every reserved slot is gone; the credits it
  // emits for them are absorbed by the post-fault guard in remote_credit.
  reserved_ = 0;
}

void Link::set_up() {
  if (!down_) return;
  down_ = false;
  ++fault_epoch_;
  tx_busy_ = false;
  notify_ready();
}

void Link::remote_credit() {
  assert(peer_ != nullptr && "credit on a link that is not a cross-shard half");
  assert(reserved_ > 0 || fault_epoch_ > 0);
  // A set_down() zeroed the count while this credit was in flight; the
  // slot it frees was already reclaimed, so the credit is stale.
  if (reserved_ > 0) --reserved_;
  notify_ready();
}

void Link::deliver_remote(Frame f) {
  // Cross-shard RX half: serialization, propagation, and the carried
  // counters all happened on the peer shard's TX half; the frame only
  // lands in the downstream buffer here.  The credit protocol bounds
  // outstanding frames to the buffer size, so this never overflows —
  // except around a fault, where a pre-outage frame can arrive after slot
  // accounting was reset; such arrivals are dropped and credited back.
  if (down_ || landed_ >= static_cast<std::size_t>(p_.buffer_frames)) {
    assert((down_ || fault_epoch_ > 0) && "RX overflow on a never-faulted link");
    ++frames_dropped_;
    credit_peer();
    return;
  }
  frames_.push_back(std::move(f));
  land();
}

void Link::deliver_head() {
  const Frame& f = frames_[landed_];
  ++frames_carried_;
  bytes_carried_ += f.wire_bytes();
  land();
}

void Link::land() {
  ++landed_;
  peak_buffered_ = std::max(peak_buffered_, landed_);
  sample_depth();
  if (deliver_cb_) deliver_cb_();
}

std::optional<Frame> Link::take() {
  if (landed_ == 0) return std::nullopt;
  Frame f = std::move(frames_.front());
  frames_.pop_front();
  --landed_;
  sample_depth();
  if (peer_ != nullptr) {
    // RX half: the freed slot is reported to the TX half as a credit
    // taking effect one link latency from now (the reverse wire).
    credit_peer();
  } else {
    --reserved_;
    notify_ready();
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
