// The distributed 2-D FFT of §4.2, runnable with either data-exchange
// strategy the paper contrasts:
//
//   * multicast — "each processor [multicasts] its entire row to all the
//     other processors.  The problem with this approach is that each
//     processor reads 65536 numbers of which only 256 are needed."
//   * personalized — "a better approach ... is for each processor to send
//     a different [message] to every other processor ... containing only
//     the data that it needs."
//
// The FFT arithmetic really executes on the simulated nodes and the
// transposed data really travels through the simulated interconnect, so
// the distributed result is verified bit-for-bit against the serial
// apps::fft2d().
#pragma once

#include <cstdint>

#include "apps/fft.hpp"
#include "vorx/multicast.hpp"
#include "vorx/system.hpp"

namespace hpcvorx::apps {

struct Fft2dConfig {
  int n = 256;               // image dimension (power of two)
  int p = 16;                // processing nodes used (divides n)
  bool use_multicast = false;
  // When multicasting: kernel-tree forwarding or in-switch replication.
  vorx::McastMode mcast_mode = vorx::McastMode::kSoftwareTree;
  std::uint64_t seed = 1;
};

struct Fft2dResult {
  sim::Duration elapsed = 0;          // start of phase 1 -> all nodes done
  sim::Duration exchange_elapsed = 0; // transpose-exchange span (max node)
  std::uint64_t bytes_received = 0;   // application data read, all nodes
  std::uint64_t bytes_needed = 0;     // data actually used, all nodes
  bool matches_serial = false;        // distributed == serial result
  std::uint64_t result_checksum = 0;
};

/// Runs the distributed 2-D FFT on `sys` (which must have >= cfg.p nodes)
/// and drives the simulator to completion.
[[nodiscard]] Fft2dResult run_fft2d(sim::Simulator& sim, vorx::System& sys,
                                    const Fft2dConfig& cfg);

}  // namespace hpcvorx::apps
