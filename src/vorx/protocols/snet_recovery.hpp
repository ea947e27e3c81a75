// S/NET overflow-recovery strategies (§2 of the paper).
//
// The S/NET's fifo-full behaviour (partial-message residue + fifo-full
// signal) forced a choice of software recovery policy:
//
//   * kBusyRetry — "the originating processors were to continuously resend
//     their message until it was successfully received".  Under
//     many-to-one bursts this livelocks: every failed attempt deposits
//     residue the receiver must drain, so the fifo never has room for a
//     whole message ("lockout").
//   * kRandomBackoff — Ethernet-style random waits: "this eliminates the
//     problem of busy loops in the kernel, but when many messages need to
//     be retransmitted, communications runs at the timeout rate".
//   * kReservation — "a processor sends a short message requesting to send
//     its data, and does not send the data until it receives an
//     acknowledgement from the receiver" — overflow-free but adds latency
//     to every message.
//
// Meglos ultimately shipped none of these: it required applications to
// bound many-to-one message lengths (12 x 150 B fits the 2048 B fifo).
// bench_snet_flow_control.cpp measures all four corners, plus the HPC
// hardware flow control that made the whole problem disappear.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>

#include "hw/snet.hpp"
#include "sim/awaitables.hpp"
#include "sim/cpu.hpp"
#include "sim/promise.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"
#include "vorx/cost_model.hpp"

namespace hpcvorx::vorx {

enum class SnetPolicy { kBusyRetry, kRandomBackoff, kReservation };

/// One processor on the S/NET: a CPU, the Meglos-era low-level send
/// machinery, and an interrupt-driven fifo drain service.
class SnetStation {
 public:
  SnetStation(sim::Simulator& sim, hw::SnetBus& bus, int id,
              const CostModel& costs, std::uint64_t rng_seed);

  struct SendOutcome {
    int attempts = 0;  // bus transmissions needed (1 == no overflow)
  };

  /// Application-level blocking send of one `bytes`-byte message.
  [[nodiscard]] sim::Task<SendOutcome> send(int dst, std::uint32_t bytes,
                                            SnetPolicy policy);

  /// Next complete application message.
  [[nodiscard]] sim::Task<hw::Frame> recv();

  /// Arms the receiver side of the reservation protocol: grants one sender
  /// at a time, holding grants until the fifo can take `expected_bytes`.
  void serve_reservations(std::uint32_t expected_bytes);

  [[nodiscard]] int id() const { return id_; }
  [[nodiscard]] sim::Cpu& cpu() { return cpu_; }
  [[nodiscard]] std::uint64_t messages_received() const { return received_; }
  [[nodiscard]] std::uint64_t partials_discarded() const { return discarded_; }

 private:
  /// The persistent fifo drain pump: one coroutine for the station's
  /// lifetime, parked in drain_park_ while the fifo is empty and resumed
  /// inline by the arrival interrupt (same coalescing idiom as
  /// Kernel::rx_pump — see kernel.cpp for the order contract).
  sim::Proc drain_pump();
  void dispatch(hw::Frame f);
  [[nodiscard]] sim::Task<bool> bus_send(hw::Frame f);
  void try_grant();

  sim::Simulator& sim_;
  hw::SnetBus& bus_;
  int id_;
  const CostModel& costs_;
  sim::Cpu cpu_;
  sim::Rng rng_;

  sim::ParkedPump drain_park_;
  sim::Mailbox<hw::Frame> inbox_;
  sim::Semaphore bus_mutex_;  // one outstanding bus request per processor
  std::uint64_t received_ = 0;
  std::uint64_t discarded_ = 0;

  // Reservation protocol state.
  bool reservation_server_ = false;
  std::uint32_t expected_bytes_ = 0;
  std::deque<int> want_to_send_;
  int authorized_ = -1;
  sim::Event grant_ev_;  // set when this station receives a grant
};

}  // namespace hpcvorx::vorx
