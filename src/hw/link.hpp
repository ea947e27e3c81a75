// A unidirectional HPC link with hardware flow control.
//
// §2 of the paper: "Each HPC link ... refuses to accept a message unless
// the hardware has room to buffer an entire message, forcing the sender to
// wait until the space is available."  A Link therefore owns the
// downstream whole-frame buffer; a frame may start transmission only when
// a buffer slot can be reserved, so frames are never lost.
//
// Timing: a frame occupies the transmitter for wire_bytes * ns_per_byte
// (serialization at 160 Mbit/s = 50 ns/byte) and lands in the downstream
// buffer a propagation latency later.  The upstream entity is notified via
// ready_cb whenever the link may have become ready (this is the source of
// the "room became available" transmit interrupt on node output links).
//
// A link whose two ends live on different shards is split into a TX half
// and an RX half (split(), DESIGN.md §12.1).  The halves bridge themselves:
// each is the sim::ShardExchange for its own inbound traffic, so this file
// is the only place that knows the link protocol, whole or split.
#pragma once

#include <cassert>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "hw/frame.hpp"
#include "hw/frame_ring.hpp"
#include "sim/shard_runtime.hpp"
#include "sim/simulator.hpp"

namespace hpcvorx::hw {

class Link final : public sim::ShardExchange {
 public:
  struct Params {
    sim::Duration ns_per_byte = 50;        // 160 Mbit/s
    sim::Duration latency = sim::usec(0.5);  // propagation + port logic
    int buffer_frames = 2;                 // downstream whole-frame slots
  };

  Link(sim::Simulator& sim, std::string name, Params p)
      : sim_(sim), name_(std::move(name)), p_(p),
        frames_(static_cast<std::size_t>(p.buffer_frames)) {
    assert(p_.buffer_frames >= 1);
  }
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// True when a frame may be sent now: the link is up, the transmitter is
  /// free and a downstream buffer slot can be reserved.
  [[nodiscard]] bool ready() const {
    return !down_ && !tx_busy_ &&
           reserved_ < static_cast<std::size_t>(p_.buffer_frames);
  }

  /// Starts transmitting `f`.  Precondition: ready().
  void send(Frame f);

  /// Invoked whenever the link may have become ready (the consumer must
  /// re-check ready()).  Models the transmit-space-available interrupt.
  void set_ready_cb(std::function<void()> cb) { ready_cb_ = std::move(cb); }

  // ---- downstream (receiving) side ----

  /// Frame at the head of the downstream buffer, or nullptr.  Valid until
  /// the next frame enters the buffer (send(), or an RX half's drain),
  /// which may grow its storage.
  [[nodiscard]] const Frame* peek() const {
    return landed_ == 0 ? nullptr : &frames_.front();
  }

  /// Removes the head frame, freeing a buffer slot (which may allow the
  /// upstream transmitter to proceed).
  std::optional<Frame> take();

  /// Invoked each time a frame lands in the downstream buffer.
  void set_deliver_cb(std::function<void()> cb) { deliver_cb_ = std::move(cb); }

  [[nodiscard]] std::size_t buffered() const { return landed_; }

  /// Frames queued at or beyond this link's transmitter as the sender sees
  /// them: serializing + reserved downstream slots (propagating, parked,
  /// or — on a TX half — not yet credited back).  The per-link congestion
  /// signal adaptive routing scores egress candidates by (DESIGN.md §15);
  /// everything counted is shard-local state, so reading it from the
  /// owning cluster's route decision is race-free.
  [[nodiscard]] std::size_t queue_depth() const {
    return (tx_busy_ ? 1u : 0u) + reserved_;
  }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const Params& params() const { return p_; }

  // ---- cross-shard halves (DESIGN.md §12.1) ----
  //
  // The TX half lives on the sending shard and the RX half, which owns the
  // downstream buffer, on the receiving shard.  A TX send() appends the
  // frame and its arrival time to the RX half's inbox; an RX take()
  // appends the freed slot's credit, effective one link latency later (the
  // reverse wire), to the TX half's inbox.  Both directions therefore keep
  // every cross-shard effect at least one latency in the future, which is
  // what the runtime's lookahead window relies on.  At the round barrier
  // each half drains its inbox on its own shard's thread (drain_into): the
  // RX half queues each frame in its buffer and posts the same landing
  // event a whole link's send() posts, the TX half posts each credit.

  /// Splits the (tx, rx) pair across shards: tx lives on `tx_shard`'s
  /// simulator, rx on `rx_shard`'s.  Notes the latency and registers rx
  /// with `rx_shard`, then tx with `tx_shard` — registration order is the
  /// drain order, so splitting links in topology order is part of the
  /// determinism contract (DESIGN.md §12).
  static void split(sim::ShardRuntime& rt, int tx_shard, int rx_shard,
                    Link& tx, Link& rx);

  /// The other half of a split link (nullptr on a whole link).
  [[nodiscard]] Link* peer() const { return peer_; }

  /// Schedules this half's inbox into its own simulator (`dst`): frames as
  /// landing events on an RX half, credits on a TX half.
  void drain_into(sim::Simulator& dst) override;

  // ---- fault injection (DESIGN.md §14) ----
  //
  // A downed link models a failed cable: frames being serialized, frames
  // propagating, and frames parked in the downstream buffer are all lost
  // (counted in frames_dropped), and ready() stays false until set_up().
  // Loss is implemented with an epoch guard: every in-flight completion
  // event captured the epoch at send time and no-ops when a fault bumped
  // it, so a fault never leaves a dangling event poking freed state.  On a
  // cross-shard pair the injector calls set_down()/set_up() on BOTH halves
  // at the same virtual time, each on its own shard, so the halves' epochs
  // stay equal; frames still on the wire and credits for slots the fault
  // reclaimed carry an older epoch and are dropped like any stale event.
  // A split link therefore fails exactly like a whole one.

  /// Cable fails.  Idempotent; safe at any point of a transfer.
  void set_down();
  /// Cable replaced: transmitter idle, buffer empty, consumers notified.
  void set_up();
  [[nodiscard]] bool is_down() const { return down_; }
  /// Frames lost to a fault: cleared by set_down(), or (RX half) still
  /// on the wire when it struck.  A frame that landed and was then cleared
  /// counts as carried too.
  [[nodiscard]] std::uint64_t frames_dropped() const { return frames_dropped_; }

  // ---- counters (diagnostics and the trace exporter) ----

  /// Cumulative frames landed in the downstream buffer (on a split link,
  /// counted by the RX half, which owns the buffer).
  [[nodiscard]] std::uint64_t frames_carried() const { return frames_carried_; }
  /// Cumulative wire bytes (payload + header) delivered downstream.
  [[nodiscard]] std::uint64_t bytes_carried() const { return bytes_carried_; }
  /// High-water mark of the downstream buffer occupancy.
  [[nodiscard]] std::size_t peak_buffered() const { return peak_buffered_; }

 private:
  void notify_ready() {
    if (ready_cb_ && ready()) ready_cb_();
  }
  /// Posts the landing, at `at`, of the frame just queued at the back of
  /// frames_: by a whole link's send(), or by an RX half's drain.
  void land_at(sim::SimTime at) {
    assert(frames_.size() <= static_cast<std::size_t>(p_.buffer_frames) &&
           "more frames downstream than buffer slots");
    sim_.post_at(at, [this, e = fault_epoch_] {
      if (e != fault_epoch_) return;
      deliver_head();
    });
  }
  void deliver_head();
  /// One downstream slot freed: a whole link's take(), or a TX half's
  /// credit.
  void free_slot() {
    assert(reserved_ > 0);
    --reserved_;
    notify_ready();
  }
  void sample_depth();

  sim::Simulator& sim_;
  std::string name_;
  Params p_;
  bool tx_busy_ = false;
  bool down_ = false;
  bool rx_half_ = false;  // split() sets it on the RX half
  // Bumped by every set_down()/set_up(); in-flight serialization and
  // delivery events, and cross-shard messages, captured the epoch when
  // they left and are dropped on mismatch.
  std::uint32_t fault_epoch_ = 0;
  // The downstream buffer: `landed_` frames parked downstream, then the
  // frames still propagating, in arrival order.  Arrival order equals send
  // order: the transmitter serializes sends, so a later frame's arrival
  // (start + ser_a + ser_b + latency) is strictly after an earlier one's
  // (start + ser_a + latency).  Landing a frame therefore only advances
  // `landed_`, and the delivery event captures only `this` — a whole Frame
  // in the capture would spill the event queue's inline storage.  Every
  // frame here holds a slot, so size() <= buffer_frames on every link, and
  // the ring's storage grows only as deep as the link has ever queued.
  FrameRing frames_;
  std::size_t landed_ = 0;
  // Downstream slots reserved by send(): freed by take() on a whole link,
  // by a credit on a TX half, and all at once by set_down().
  std::size_t reserved_ = 0;
  std::function<void()> ready_cb_;
  std::function<void()> deliver_cb_;
  // Split links only: the other half, and the cross-shard messages bound
  // for this half — frames on an RX half, credits (no frame) on a TX
  // half.  Its producer appends only while running a window and
  // drain_into() runs between the round's two barrier phases, so the round
  // barrier orders every append before the drain that reads it.
  struct Crossing {
    sim::SimTime at;
    std::uint32_t epoch;
    Frame frame;
  };
  Link* peer_ = nullptr;
  std::vector<Crossing> inbox_;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frames_carried_ = 0;
  std::uint64_t bytes_carried_ = 0;
  std::size_t peak_buffered_ = 0;
};

}  // namespace hpcvorx::hw
