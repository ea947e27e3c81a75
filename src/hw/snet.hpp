// The S/NET interconnect — the baseline the HPC replaced.
//
// §2 of the paper: the S/NET was a single bus serving at most ~12
// processors.  "The hardware provided a fifo input buffer for each
// processor that could hold several incoming messages, with a combined
// length up to 2048 bytes.  When the fifo became full, the receiver would
// reject messages sent to it and send a fifo-full signal to the
// transmitter ...  A property of the S/NET interface hardware was that
// when overflow occurred, the fifo retained the portion of the message
// that was received up to the time of the overflow.  The communications
// software in the receiving processor had to read and discard this initial
// portion of the message."
//
// Those exact semantics — the partial-message residue in particular — are
// what produced the many-to-one lockout pathology, so SnetBus models them
// directly.  Overflow-recovery *policies* (busy retransmission, random
// backoff, reservation) live in the OS layer (vorx/protocols).
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "hw/frame.hpp"
#include "sim/simulator.hpp"

namespace hpcvorx::hw {

/// S/NET bus construction parameters.
struct SnetParams {
  sim::Duration ns_per_byte = 100;        // ~80 Mbit/s shared bus
  sim::Duration arbitration = sim::usec(2);  // per-grant bus overhead
  std::uint32_t fifo_bytes = 2048;        // per-processor input fifo
  // Fixed-priority bus grants (lowest processor id wins), as backplane
  // buses of the era arbitrated.  Combined with busy retransmission this
  // starves high-id senders outright — the strongest form of §2's "some
  // of the messages were never received".  false = FIFO request order.
  bool fixed_priority_arbitration = false;
};

class SnetBus {
 public:
  using Params = SnetParams;

  SnetBus(sim::Simulator& sim, int num_processors, Params p = Params());
  SnetBus(const SnetBus&) = delete;
  SnetBus& operator=(const SnetBus&) = delete;

  /// Queues a transmission.  The bus grants requests in arrival order;
  /// when the transfer finishes, `done(accepted)` reports whether the
  /// destination fifo took the whole message.  On rejection the fifo has
  /// absorbed a partial-message residue that the receiver must drain.
  /// At most one outstanding request per source processor.
  void request_send(int src, Frame f, std::function<void(bool)> done);

  /// One fifo entry: either a complete message or a truncated residue
  /// (complete == false) that software must read and discard.
  struct Fragment {
    Frame frame;
    std::uint32_t bytes;  // bytes occupying the fifo
    bool complete;
  };

  [[nodiscard]] const Fragment* fifo_peek(int proc) const;

  /// Removes the head fragment, freeing its fifo bytes.
  std::optional<Fragment> fifo_take(int proc);

  /// Incremental drain: the receiving software frees `bytes` of the head
  /// fragment as it reads words out (real S/NET fifos freed space
  /// continuously, which is what lets concurrent doomed arrivals consume
  /// it — the §2 lockout mechanism).  Use fifo_pop() once the whole head
  /// fragment has been released.
  void fifo_release(int proc, std::uint32_t bytes);

  /// Removes the head fragment without freeing bytes (they must have been
  /// released already via fifo_release).
  std::optional<Fragment> fifo_pop(int proc);

  [[nodiscard]] std::uint32_t fifo_used(int proc) const {
    return fifo_used_[static_cast<std::size_t>(proc)];
  }
  [[nodiscard]] std::uint32_t fifo_free(int proc) const {
    return params_.fifo_bytes - fifo_used(proc);
  }

  /// Receive interrupt: fired when a fragment (complete or partial) lands.
  void set_rx_cb(int proc, std::function<void()> cb) {
    rx_cb_[static_cast<std::size_t>(proc)] = std::move(cb);
  }

  [[nodiscard]] std::uint64_t messages_delivered() const { return delivered_; }
  [[nodiscard]] std::uint64_t overflows() const { return overflows_; }
  [[nodiscard]] std::uint64_t bus_grants() const { return grants_; }
  [[nodiscard]] const Params& params() const { return params_; }
  [[nodiscard]] int num_processors() const {
    return static_cast<int>(fifos_.size());
  }

 private:
  struct Request {
    int src;
    Frame frame;
    std::function<void(bool)> done;
  };

  void grant_next();
  void finish_transfer();

  sim::Simulator& sim_;
  Params params_;
  std::deque<Request> queue_;
  bool bus_busy_ = false;
  // The request currently crossing the bus.  bus_busy_ serializes
  // transfers, so at most one is in flight; parking it here lets the
  // completion event capture only `this` (inline in the event queue)
  // instead of hauling the whole Request through the callback.
  std::optional<Request> xfer_;
  std::vector<std::deque<Fragment>> fifos_;
  std::vector<std::uint32_t> fifo_used_;
  std::vector<std::function<void()>> rx_cb_;
  std::uint64_t delivered_ = 0;
  std::uint64_t overflows_ = 0;
  std::uint64_t grants_ = 0;
};

}  // namespace hpcvorx::hw
