// Kernel message kinds carried in hw::Frame::kind: dense from 1, as they
// index the kernel's dispatch table.  Kind 0 is never assigned, so a
// default-constructed Frame finds no handler and is dropped.
#pragma once

#include <cstdint>

namespace hpcvorx::vorx {

namespace msg {
// Channel protocol (§4): stop-and-wait data/ack plus the buffer-exhaustion
// retransmission request.
inline constexpr std::uint32_t kChanData = 1;
inline constexpr std::uint32_t kChanAck = 2;
inline constexpr std::uint32_t kChanRetransmitReq = 3;

// Object-manager rendezvous (§3.2).
inline constexpr std::uint32_t kOmOpen = 4;          // open a named object
inline constexpr std::uint32_t kOmRegisterServer = 5;
inline constexpr std::uint32_t kOmReply = 6;         // open completed
inline constexpr std::uint32_t kOmAccept = 7;        // server-side notify

// User-defined communications objects (§4.1): dispatched by Frame::obj to
// the application's interrupt service routine.
inline constexpr std::uint32_t kUdco = 8;

// Execution environment (§3.3).
inline constexpr std::uint32_t kSyscallReq = 9;
inline constexpr std::uint32_t kSyscallReply = 10;
inline constexpr std::uint32_t kLoadSegment = 11;
inline constexpr std::uint32_t kLoadDone = 12;

// Flow-controlled multicast (§4.2).
inline constexpr std::uint32_t kMcastData = 13;
inline constexpr std::uint32_t kMcastAck = 14;

// Processor allocation (§3.1).  The workload generator's session-slot
// admission runs over these: req/reply against a host's slot table, plus
// the explicit free VORX requires ("not available to anyone else until
// explicitly freed").  A workload request carries (root slot << 8 |
// attempt) in Frame::seq, and the reply echoes it.
inline constexpr std::uint32_t kAllocReq = 15;
inline constexpr std::uint32_t kAllocReply = 16;
inline constexpr std::uint32_t kAllocFree = 17;

// Conferencing workload sessions (vorx::WorkloadGen, DESIGN.md §14).
// Frame::obj carries the session id end to end; an invite carries the
// root slot in Frame::aux, and the accept echoes it.
inline constexpr std::uint32_t kSessInvite = 18;  // root -> member node
inline constexpr std::uint32_t kSessAccept = 19;  // member -> root
inline constexpr std::uint32_t kSessData = 20;    // talk-spurt media frame
inline constexpr std::uint32_t kSessLeave = 21;   // member churn notice
inline constexpr std::uint32_t kSessBye = 22;     // root tears session down

// Raw frames for tests and ad-hoc experiments.
inline constexpr std::uint32_t kRaw = 23;

// One past the largest kind: the length of the kernel's dispatch table.
inline constexpr std::uint32_t kNumKinds = 24;
}  // namespace msg

}  // namespace hpcvorx::vorx
