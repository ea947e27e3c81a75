// Hardware message frames.
//
// The HPC limits messages to 1060 bytes of payload (§2 of the paper); the
// interconnect buffers and forwards *whole* frames, never fragments.  A
// Frame models the wire representation: a small routing/dispatch header
// plus a payload whose bytes may (optionally) be carried for end-to-end
// data-integrity checking, or omitted when only timing matters.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/time.hpp"

namespace hpcvorx::hw {

/// Globally unique id of an attached station (processing node or host
/// workstation).  Stations are numbered densely from 0 by the Fabric.
using StationId = int;

inline constexpr std::uint32_t kMaxPayloadBytes = 1060;  // HPC frame limit
inline constexpr std::uint32_t kHeaderBytes = 16;        // modelled header

using Payload = std::shared_ptr<const std::vector<std::byte>>;

/// Convenience: wraps bytes into a shareable payload.  Fine for tests,
/// apps, and one-off control frames; steady-state OS-layer payloads should
/// come from hw::FramePool instead (vorx-lint R5 enforces this).
// vorx-lint: allow(R5) this is the definition the rule points away from
[[nodiscard]] inline Payload make_payload(std::vector<std::byte> bytes) {
  // vorx-lint: allow(R5) the one sanctioned make_shared payload spelling
  return std::make_shared<const std::vector<std::byte>>(std::move(bytes));
}

struct Frame {
  // The 32-bit fields sit together so that no padding falls between the
  // 64-bit words (80 bytes): every link buffer slot and every frame a
  // switch moves is one of these.
  StationId src = -1;
  StationId dst = -1;
  std::uint32_t payload_bytes = 0;
  int hops = 0;  // cluster traversals (diagnostics/tests)

  // Software-defined dispatch fields (interpreted by the OS layer, carried
  // opaquely by the hardware — they model bits inside the header).
  std::uint32_t kind = 0;  // protocol discriminator
  std::uint64_t obj = 0;   // target channel / communications-object id
  std::uint64_t seq = 0;   // protocol sequence number / credit count
  std::uint64_t aux = 0;   // protocol-specific extra header word

  // Hardware multicast group id; 0 = ordinary unicast.  Group frames are
  // replicated inside the clusters along a pre-programmed spanning tree
  // (§4.2: the HPC hardware was designed "to be able to implement
  // multicast efficiently").
  std::uint64_t group = 0;

  Payload data;  // optional actual contents (null when only timing matters)

  sim::SimTime injected_at = 0;  // set by the endpoint at transmit time

  [[nodiscard]] std::uint32_t wire_bytes() const {
    return payload_bytes + kHeaderBytes;
  }
};

}  // namespace hpcvorx::hw
