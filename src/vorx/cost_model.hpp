// Software-overhead constants for the simulated VORX kernel.
//
// The original system ran on 25 MHz Motorola 68020 processing nodes; the
// paper reports enough end-to-end measurements to calibrate a virtual-time
// cost model of the communications software.  Every constant below is tied
// to a number printed in the paper:
//
//   * Table 2: channel (stop-and-wait) latency 303/341/474/997 us for
//     4/64/256/1024-byte messages.  The per-message fixed path is
//     ~300 us and the per-byte slope ~0.68 us/B including the 0.1 us/B
//     contributed by two 160 Mbit/s link traversals.
//   * Table 1: user-defined sliding-window protocol, 414..164 us/msg for
//     4-byte messages over 1..64 buffers; per-message pipelined bottleneck
//     C_b(n) ~ 166 + 0.33n us and round-trip C_rt(n) ~ 248 + 0.31n us.
//   * §4.1: 60 us software latency for 64-byte messages with direct
//     hardware access and no protocol (the parallel-SPICE numbers).
//   * §5: 80 us for a full fixed+floating context switch; coroutine and
//     interrupt-level structuring cost far less.
//   * §3.3: 12 s to download-and-init 70 processes with per-process
//     stubs, 2 s with one stub and the fan-out-2 tree download.
//
// Changing a constant here moves the corresponding benchmark; the
// calibration tests (tests/calibration_test.cpp) pin the headline values
// to the paper within tolerance.
#pragma once

#include "sim/time.hpp"

namespace hpcvorx::vorx {

struct CostModel {
  // ---- kernel receive path (interrupt level) ----
  // Fixed cost to field a receive interrupt and read a frame header.
  sim::Duration rx_interrupt = sim::usec(30);
  // Per-byte cost to copy a frame's payload out of the interface.
  sim::Duration rx_copy_per_byte = 290;  // ns/B

  // ---- channel (stop-and-wait) protocol, §4 ----
  // write() syscall entry + kernel send processing before the wire.
  sim::Duration chan_write_fixed = sim::usec(75);
  // Per-byte copy user space -> interface on the sending side.
  sim::Duration chan_write_per_byte = 290;  // ns/B
  // Receiving kernel: deliver into channel buffer and generate the ACK.
  sim::Duration chan_deliver_fixed = sim::usec(50);
  // Sending kernel: process the ACK and unblock the writer.
  sim::Duration chan_ack_fixed = sim::usec(45);
  // Writer wakeup/dispatch after the ACK (scheduler path).
  sim::Duration chan_wakeup = sim::usec(55);
  // read() syscall + copy into the user buffer (fixed part).
  sim::Duration chan_read_fixed = sim::usec(30);

  // ---- user-defined communications objects, §4.1 ----
  // Direct hardware register access from the application: no supervisor
  // call, so the fixed costs are far smaller (calibrated to the 60 us /
  // 64 B SPICE figure: ~21 + wire(9) + ~27 ~= 60 us one-way).
  sim::Duration udco_send_fixed = sim::usec(18);
  sim::Duration udco_send_per_byte = 120;  // ns/B (tight copy loop)
  // User interrupt-service routine dispatch + frame read (fixed part).
  sim::Duration udco_isr_fixed = sim::usec(24);
  sim::Duration udco_isr_per_byte = 40;  // ns/B

  // ---- sliding-window protocol bookkeeping, §4.1 / Table 1 ----
  // The Table 1 protocol is written *above* the user-defined object layer
  // by an application, so each message also pays user-level bookkeeping
  // (credit counting, buffer management) on both sides, and blocked
  // senders/receivers pay a subprocess block/wakeup.
  sim::Duration swp_sender_bookkeep = sim::usec(40);
  sim::Duration swp_sender_per_byte = 100;    // ns/B (checksum/window walk)
  sim::Duration swp_receiver_bookkeep = sim::usec(84);
  sim::Duration swp_receiver_per_byte = 290;  // ns/B (copy out of buffer)
  sim::Duration swp_credit_send = sim::usec(40);  // short protocol message
  // Waking a blocked protocol subprocess costs a full context switch.
  sim::Duration swp_block_wakeup = sim::usec(80);

  // ---- scheduling, §5 ----
  // Full context switch: "saving both fixed and floating point registers
  // takes 80 usec using a 25 MHz Motorola 68020 with a 68882".
  sim::Duration subprocess_switch = sim::usec(80);
  // Coroutine switch: only live registers at well-defined points.
  sim::Duration coroutine_switch = sim::usec(12);
  // Entering/leaving an interrupt-level handler (no register file save).
  sim::Duration interrupt_dispatch = sim::usec(4);
  // Semaphore P/V kernel operation.
  sim::Duration semaphore_op = sim::usec(10);

  // ---- object manager / rendezvous, §3.2 ----
  // Processing one open request at an object manager.
  sim::Duration om_open_service = sim::usec(120);
  // Client-side cost to issue an open and process the reply.
  sim::Duration om_open_client = sim::usec(80);

  // ---- execution environment, §3.3 ----
  // Host-side cost to fork and initialize one stub process (SunOS fork +
  // exec + channel plumbing): the dominant term of the 12 s figure.
  sim::Duration stub_create = sim::usec(75'000);
  // Host-side per-process bookkeeping that is unavoidable even with a
  // shared stub (process table registration, name service entries).
  sim::Duration process_register = sim::usec(24'000);
  // Node-side cost to initialize a downloaded process image.
  sim::Duration process_init = sim::usec(8'000);
  // Stub-side cost to service one forwarded UNIX system call.
  sim::Duration stub_syscall = sim::usec(400);
  // Per-chunk cost for a node to relay a download segment to a child in
  // the tree scheme (copy-through while receiving).
  sim::Duration loader_relay_per_byte = 60;  // ns/B

  // ---- S/NET software (the Meglos-era baseline, §2) ----
  // Per-byte cost for the receiving processor to read words out of its
  // input fifo (the drain rate that loses the race against the bus during
  // many-to-one bursts, producing the §2 lockout).
  sim::Duration snet_read_per_byte = 500;  // ns/B
  // Software cost to issue/retry one bus transmission.
  sim::Duration snet_send_fixed = sim::usec(25);
  // Initial random-backoff window after a fifo-full signal (doubles per
  // consecutive failure, as on the Ethernet).
  sim::Duration snet_backoff_initial = sim::usec(200);
};

/// The default model, calibrated against the paper (see file comment).
[[nodiscard]] inline const CostModel& default_cost_model() {
  static const CostModel m{};
  return m;
}

}  // namespace hpcvorx::vorx
