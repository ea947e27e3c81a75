// The per-node VORX kernel: interrupt-driven receive path and transmit
// queue over one hardware Endpoint.
//
// The receive path embodies the paper's deadlock-avoidance invariant (§2):
// "It never deadlocks because the VORX kernel reads in messages
// immediately when they arrive."  Frames are copied out of the interface
// at interrupt priority as soon as they land, freeing the hardware buffer
// so the interconnect keeps draining; dispatch then hands the frame to the
// protocol layer (channels, object manager, user-defined objects, ...).
//
// User-defined communications objects (§4.1) are dispatched by object id
// with *user-supplied* receive costs — "processes can access the hardware
// registers from their applications, eliminating the overhead of
// supervisor calls into the kernel and can specify interrupt service
// routines to handle incoming messages."
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>

#include "hw/fabric.hpp"
#include "sim/awaitables.hpp"
#include "sim/cpu.hpp"
#include "sim/task.hpp"
#include "vorx/cost_model.hpp"
#include "vorx/msg.hpp"

namespace hpcvorx::vorx {

class Udco;

class Kernel {
 public:
  using Handler = std::function<void(hw::Frame)>;

  Kernel(sim::Simulator& sim, hw::Endpoint& ep, sim::Cpu& cpu,
         const CostModel& costs);
  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  /// Registers the protocol handler for a message kind (< msg::kNumKinds),
  /// replacing any earlier one.  The handler runs after the
  /// receive-interrupt cost has been charged; it should do only
  /// bookkeeping (further costed work belongs in its own coroutine).
  void register_handler(std::uint32_t kind, Handler h);

  /// Registers a user-defined communications object: frames with
  /// kind==kUdco and object id obj.id() are delivered to obj.deliver()
  /// after charging the *user* ISR cost instead of the kernel receive path.
  /// The object unregisters itself before it dies.
  void register_object(Udco& obj);
  void unregister_object(std::uint64_t obj);

  /// Queues a frame for transmission.  The caller has already paid the CPU
  /// cost of building/copying it; the kernel waits for hardware transmit
  /// space (the §2 space-available interrupt) and injects frames in order.
  void send(hw::Frame f);

  [[nodiscard]] hw::StationId station() const { return ep_.id(); }
  [[nodiscard]] sim::Cpu& cpu() { return cpu_; }
  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] const CostModel& costs() const { return costs_; }
  /// The fabric's recycling payload pool; the OS layer's steady-state
  /// payload construction goes through this (vorx-lint R5).
  [[nodiscard]] hw::FramePool& frame_pool() { return ep_.frame_pool(); }

  [[nodiscard]] std::uint64_t frames_received() const { return rx_count_; }
  [[nodiscard]] std::uint64_t frames_sent() const { return tx_count_; }
  [[nodiscard]] std::uint64_t frames_dropped() const { return dropped_; }
  [[nodiscard]] std::size_t tx_queue_depth() const { return txq_.size(); }

  // ---- counters (diagnostics and the trace exporter) ----

  /// Cumulative payload bytes received / queued for transmission.
  [[nodiscard]] std::uint64_t bytes_received() const { return rx_bytes_; }
  [[nodiscard]] std::uint64_t bytes_sent() const { return tx_bytes_; }
  /// High-water mark of the transmit queue.
  [[nodiscard]] std::size_t peak_tx_queue_depth() const { return txq_peak_; }
  /// Total time the transmit service spent waiting for hardware transmit
  /// space (the §2 "room became available" interrupt wait).
  [[nodiscard]] sim::Duration tx_blocked() const { return tx_blocked_; }
  /// Receive interrupts taken (one per frame arrival) vs. rx-pump
  /// wake-ups.  Arrivals while the pump is already mid-burst — same-tick
  /// back-to-back deliveries especially — stay staged in the hardware
  /// receive ring and are drained without another resume, so
  /// rx_resumes() <= rx_interrupts(); the difference is the coalescing
  /// win (the engine.coalesced_resumes_ratio bench row).
  [[nodiscard]] std::uint64_t rx_interrupts() const { return rx_irqs_; }
  [[nodiscard]] std::uint64_t rx_resumes() const { return rx_resumes_; }

 private:
  /// The persistent receive pump: one coroutine for the kernel's lifetime,
  /// parked in rx_park_ while the receive ring is empty and resumed inline
  /// by the arrival interrupt (see kernel.cpp for the order contract).
  sim::Proc rx_pump();
  sim::Proc tx_service();
  void dispatch(hw::Frame f);
  void sample_txq();

  sim::Simulator& sim_;
  hw::Endpoint& ep_;
  sim::Cpu& cpu_;
  const CostModel& costs_;

  // Indexed by Frame::kind; an empty slot drops the frame.
  std::array<Handler, msg::kNumKinds> handlers_;
  std::unordered_map<std::uint64_t, Udco*> objects_;

  std::deque<hw::Frame> txq_;
  sim::Event tx_ready_ev_;
  // Resuming the parked pump inline from the arrival interrupt is the whole
  // coalescing mechanism: no per-burst coroutine spawn, no per-frame
  // re-entry.
  sim::ParkedPump rx_park_;
  bool tx_active_ = false;
  std::uint64_t rx_irqs_ = 0;
  std::uint64_t rx_resumes_ = 0;
  std::uint64_t rx_count_ = 0;
  std::uint64_t tx_count_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t rx_bytes_ = 0;
  std::uint64_t tx_bytes_ = 0;
  std::size_t txq_peak_ = 0;
  sim::Duration tx_blocked_ = 0;
};

}  // namespace hpcvorx::vorx
