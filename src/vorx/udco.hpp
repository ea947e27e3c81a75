// User-defined communications objects (§4.1).
//
// "In VORX a general interface for user-defined communications objects is
// provided. ... processes can access the hardware registers from their
// applications, eliminating the overhead of supervisor calls into the
// kernel and can specify interrupt service routines to handle incoming
// messages.  This allows the programmer to use whatever low-level
// protocols are appropriate for the application."
//
// A Udco is one end of a paired raw-frame connection obtained through the
// object-manager rendezvous.  send() costs only the user-level fixed +
// per-byte path (no supervisor call); incoming frames are handed to the
// object's ISR — by default a routine that queues them in an unbounded
// inbox with no flow control (the Linda-style semantics of §4.1).
// Applications may poll() the inbox without blocking (the §5
// "single subprocess that never switches context" structuring) or install
// a custom ISR and do all their work at interrupt level.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "sim/awaitables.hpp"
#include "sim/task.hpp"
#include "vorx/census.hpp"
#include "vorx/kernel.hpp"

namespace hpcvorx::vorx {

class Subprocess;

class Udco {
 public:
  Udco(Kernel& kernel, NodeCensus& census, std::uint64_t id,
       std::uint64_t peer_id, std::string name, hw::StationId peer);
  ~Udco();
  Udco(const Udco&) = delete;
  Udco& operator=(const Udco&) = delete;

  /// Raw send to the peer: user-level cost only, no kernel protocol, no
  /// software flow control.  The hardware still applies its own (§2).
  [[nodiscard]] sim::Task<void> send(Subprocess& sp, std::uint32_t bytes,
                                     hw::Payload data = nullptr,
                                     std::uint64_t seq = 0,
                                     std::uint64_t aux = 0);

  /// Scatter/gather send (§4.1: "Other application-specific input and
  /// output techniques, such as scatter/gather may also be implemented"):
  /// coalesces several user buffers into one frame with a single
  /// fixed-cost setup instead of one per buffer.
  [[nodiscard]] sim::Task<void> send_gather(
      Subprocess& sp, const std::vector<hw::Payload>& pieces,
      std::uint64_t seq = 0, std::uint64_t aux = 0);

  /// Blocking receive from the default-ISR inbox.
  [[nodiscard]] sim::Task<hw::Frame> recv(Subprocess& sp);

  /// Non-blocking test for input "at convenient places in the program"
  /// (§5's no-context-switch structuring).
  [[nodiscard]] std::optional<hw::Frame> poll();

  /// Replaces the default inbox ISR; `isr` runs at interrupt level after
  /// the user ISR cost has been charged.
  void set_isr(Kernel::Handler isr);

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] std::uint64_t peer_end_id() const { return peer_id_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] hw::StationId peer() const { return peer_; }
  [[nodiscard]] std::size_t pending() const { return inbox_.size(); }
  [[nodiscard]] std::uint64_t frames_sent() const { return sent_; }
  [[nodiscard]] std::uint64_t frames_received() const { return received_; }

  /// Feeds one frame through the object's ISR (also used to replay frames
  /// that arrived before the object finished opening).
  void deliver(hw::Frame f);

 private:
  Kernel& kernel_;
  NodeCensus& census_;
  std::uint64_t id_;
  std::uint64_t peer_id_;
  std::string name_;
  hw::StationId peer_;
  std::deque<hw::Frame> inbox_;
  sim::Event arrival_;
  Kernel::Handler isr_;
  std::uint64_t sent_ = 0;
  std::uint64_t received_ = 0;
};

}  // namespace hpcvorx::vorx
