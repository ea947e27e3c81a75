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
// buffer a propagation latency later.  Each end of a link has one typed
// consumer (LinkConsumer): the sender is told whenever the link may have
// become ready (the source of the "room became available" transmit
// interrupt on node output links), the receiver whenever a frame lands.
//
// A link whose two ends live on different shards is split into a TX half
// and an RX half (split(), DESIGN.md §12.1).  The halves bridge themselves
// through a side object that split() allocates for the two halves only —
// the sim::ShardExchange for each half's inbound traffic — so a whole
// link carries one null pointer for it, and this file pair is the only
// place that knows the link protocol, whole or split.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>

#include "hw/frame.hpp"
#include "hw/frame_ring.hpp"
#include "sim/simulator.hpp"

namespace hpcvorx::sim {
class ShardRuntime;
}  // namespace hpcvorx::sim

namespace hpcvorx::hw {

/// What sits at one end of a Link: its sender (a cluster output port or a
/// station's transmit section) or its receiver (a cluster input port or a
/// station's receive section).  A link calls its end's consumer directly,
/// with the port that end was attached at, so one consumer serves every
/// link it terminates.
class LinkConsumer {
 public:
  virtual ~LinkConsumer() = default;
  /// Sender side: the link on `port` may have become ready (the consumer
  /// must re-check ready()).  Models the transmit-space-available
  /// interrupt.
  virtual void link_ready(int port) = 0;
  /// Receiver side: a frame landed in the buffer of the link on `port`.
  virtual void link_delivered(int port) = 0;
};

class Link final {
 public:
  struct Params {
    sim::Duration ns_per_byte = 50;        // 160 Mbit/s
    sim::Duration latency = sim::usec(0.5);  // propagation + port logic
    int buffer_frames = 2;                 // downstream whole-frame slots
  };

  Link(sim::Simulator& sim, std::string name, Params p);
  ~Link();
  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// True when a frame may be sent now: the link is up, the transmitter is
  /// free and a downstream buffer slot can be reserved.
  [[nodiscard]] bool ready() const {
    return !down_ && !tx_busy_ &&
           reserved_ < static_cast<std::uint32_t>(p_.buffer_frames);
  }

  /// Starts transmitting `f`.  Precondition: ready().
  void send(Frame f);

  /// Attaches the sender end: `c`->link_ready(port) runs whenever the link
  /// may have become ready.  Replaces any earlier sender.  `c` must outlive
  /// the link's events.
  void set_sender(LinkConsumer* c, int port) {
    sender_ = c;
    sender_port_ = port;
  }

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

  /// Attaches the receiver end: `c`->link_delivered(port) runs each time a
  /// frame lands in the downstream buffer.  Replaces any earlier receiver.
  void set_receiver(LinkConsumer* c, int port) {
    receiver_ = c;
    receiver_port_ = port;
  }

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
  // what the runtime's lookahead window relies on.  Each inbox lives in its
  // half's side object, the sim::ShardExchange the runtime registers: at
  // the round barrier each one is drained on its own half's shard thread;
  // the RX half queues each frame in its buffer and posts the same landing
  // event a whole link's send() posts, the TX half posts each credit.

  /// Splits the (tx, rx) pair across shards: tx lives on `tx_shard`'s
  /// simulator, rx on `rx_shard`'s.  Gives each half its side object,
  /// notes the latency and registers rx's with `rx_shard`, then tx's with
  /// `tx_shard` — registration order is the drain order, so splitting
  /// links in topology order is part of the determinism contract
  /// (DESIGN.md §12).  The TX half's sender and the RX half's receiver are
  /// the pair's consumers; the other two ends stay unattached.
  static void split(sim::ShardRuntime& rt, int tx_shard, int rx_shard,
                    Link& tx, Link& rx);

  /// The other half of a split link (nullptr on a whole link).
  [[nodiscard]] Link* peer() const;

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
  struct Split;  // the split-only state (link.cpp)

  void notify_ready() {
    if (sender_ != nullptr && ready()) sender_->link_ready(sender_port_);
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
  /// A split half's inbox drained into its own simulator: frames as landing
  /// events on an RX half, credits on a TX half.
  void drain_inbox(sim::Simulator& dst);

  sim::Simulator& sim_;
  std::string name_;
  Params p_;
  bool tx_busy_ = false;
  bool down_ = false;
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
  std::uint32_t landed_ = 0;
  // Downstream slots reserved by send(): freed by take() on a whole link,
  // by a credit on a TX half, and all at once by set_down().
  std::uint32_t reserved_ = 0;
  std::uint32_t peak_buffered_ = 0;
  int sender_port_ = -1;
  int receiver_port_ = -1;
  LinkConsumer* sender_ = nullptr;
  LinkConsumer* receiver_ = nullptr;
  // Null on a whole link; split() sets it on both halves.
  std::unique_ptr<Split> split_;
  std::uint64_t frames_dropped_ = 0;
  std::uint64_t frames_carried_ = 0;
  std::uint64_t bytes_carried_ = 0;
};

}  // namespace hpcvorx::hw
