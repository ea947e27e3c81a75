#include "hw/shard_link.hpp"

#include <cassert>
#include <vector>

namespace hpcvorx::hw {

ShardLinkBridge::ShardLinkBridge(sim::ShardRuntime& rt, int tx_shard,
                                 int rx_shard, Link& tx, Link& rx)
    : frames_(rx), credits_(tx) {
  assert(tx_shard != rx_shard);
  assert(tx.params().latency == rx.params().latency &&
         "the two halves of a split link must agree on its latency");
  rt.note_cross_shard_latency(tx.params().latency);
  rt.register_exchange(rx_shard, &frames_);
  rt.register_exchange(tx_shard, &credits_);
  tx.set_remote_sink([this](sim::SimTime arrival, Frame f) {
    if (f.data != nullptr) {
      // Detach from the TX shard's FramePool: the pooled buffer's deleter
      // is not thread-safe, so the crossing frame carries a plain copy the
      // destination shard may drop on its own thread.
      // vorx-lint: allow(R5) cross-shard boundary copy — pooled payloads may not change shards
      f.data = make_payload(std::vector<std::byte>(f.data->begin(), f.data->end()));
    }
    frames_.q.emplace_back(arrival, std::make_unique<Frame>(std::move(f)));
  });
  rx.set_credit_cb([this, latency = rx.params().latency](sim::SimTime taken) {
    credits_.q.push_back(taken + latency);
  });
}

void ShardLinkBridge::FrameChannel::drain_into(sim::Simulator& dst) {
  // The RX link outlives every scheduled delivery: it is owned by the
  // Fabric, which outlives the runtime's run.  The frame itself rides the
  // event as owned state.
  Link* const link = &rx_link;
  for (auto& e : q) {
    // The lookahead guarantee: everything queued during completed windows
    // arrives strictly beyond them, i.e. in this shard's future.
    assert(e.first > dst.now() &&
           "cross-shard frame arrived at or before the drain point");
    dst.post_at(e.first, [link, f = std::move(e.second)]() mutable {
      link->deliver_remote(std::move(*f));
    });
  }
  q.clear();
}

void ShardLinkBridge::CreditChannel::drain_into(sim::Simulator& dst) {
  Link* const link = &tx_link;  // fabric-owned, outlives the run
  for (const sim::SimTime at : q) {
    assert(at > dst.now() &&
           "cross-shard credit arrived at or before the drain point");
    dst.post_at(at, [link] { link->remote_credit(); });
  }
  q.clear();
}

}  // namespace hpcvorx::hw
