// Cross-shard plumbing for one direction of one hw::Link.
//
// When a link's two clusters land on different shards the link splits into
// halves (see link.hpp): the TX half on the sending shard, the RX half on
// the receiving shard.  A ShardLinkBridge wires the pair together through
// two channels registered with the runtime:
//
//   frames:  TX half's remote sink -> buffer -> drained into the RX shard,
//            where each frame becomes a deliver_remote() event at its
//            precomputed arrival time;
//   credits: RX half's take() -> buffer -> drained into the TX shard, where
//            each freed buffer slot becomes a remote_credit() event one
//            link latency after the take — the reverse wire signal.
//
// Each buffer is a plain vector: its producer appends only while running a
// window and its consumer drains only between the round's two barrier
// phases, so the round barrier orders every push before the drain that
// reads it, and every drain before the next window's pushes.  The vectors
// keep their capacity across rounds.
//
// Both directions move simulated time forward by at least the link latency,
// which is exactly the lookahead guarantee ShardRuntime's windows rest on
// (the bridge reports its latency via note_cross_shard_latency).
//
// Frame payloads are detached at the TX boundary: pooled payload buffers
// recycle into their shard's FramePool from a deleter that is not
// thread-safe, so a frame crossing shards gets a plain heap copy the
// destination shard may release freely.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "hw/link.hpp"
#include "sim/shard_runtime.hpp"

namespace hpcvorx::hw {

class ShardLinkBridge {
 public:
  /// Splits the (tx, rx) pair across shards: tx lives on `tx_shard`'s
  /// simulator, rx on `rx_shard`'s.  Registers both channels with `rt` —
  /// construction order is the drain order, so building bridges in
  /// topology order is part of the determinism contract (DESIGN.md §12).
  ShardLinkBridge(sim::ShardRuntime& rt, int tx_shard, int rx_shard, Link& tx,
                  Link& rx);
  ShardLinkBridge(const ShardLinkBridge&) = delete;
  ShardLinkBridge& operator=(const ShardLinkBridge&) = delete;

 private:
  struct FrameChannel final : sim::ShardExchange {
    explicit FrameChannel(Link& rx) : rx_link(rx) {}
    void drain_into(sim::Simulator& dst) override;
    Link& rx_link;
    std::vector<std::pair<sim::SimTime, std::unique_ptr<Frame>>> q;
  };
  struct CreditChannel final : sim::ShardExchange {
    explicit CreditChannel(Link& tx) : tx_link(tx) {}
    void drain_into(sim::Simulator& dst) override;
    Link& tx_link;
    std::vector<sim::SimTime> q;
  };

  FrameChannel frames_;
  CreditChannel credits_;
};

}  // namespace hpcvorx::hw
