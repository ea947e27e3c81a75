// Storm's generator holds state for live sessions only (DESIGN.md §14.1):
// constructing a WorkloadGen allocates the same heap whatever the user
// count, and a root slot that a later session reuses ignores the frames
// and timers left over from the session that held it before.
//
// This is its own executable: the global operator new below counts every
// allocation the process makes.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <map>
#include <new>
#include <utility>

#include "sim/simulator.hpp"
#include "vorx/msg.hpp"
#include "vorx/node.hpp"
#include "vorx/system.hpp"
#include "vorx/workload.hpp"

namespace {
std::size_t g_allocated = 0;  // bytes requested from operator new so far
}  // namespace

void* operator new(std::size_t n) {
  g_allocated += n;
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace hpcvorx::vorx {
namespace {

// Bytes that constructing a WorkloadGen allocates on a fresh machine.
std::size_t construction_bytes(int users, sim::Duration horizon,
                               std::uint64_t* sessions) {
  sim::Simulator sim;
  System sys(sim, storm_machine(256, 4));
  WorkloadConfig wcfg;
  wcfg.users = users;
  wcfg.horizon = horizon;
  const std::size_t before = g_allocated;
  const WorkloadGen gen(sys, wcfg, 1990);
  const std::size_t added = g_allocated - before;
  *sessions = gen.sessions_generated();
  return added;
}

TEST(WorkloadStream, ConstructionHeapIsIndependentOfUsers) {
  std::uint64_t few = 0;
  std::uint64_t many = 0;
  const std::size_t small = construction_bytes(10'000, sim::msec(500), &few);
  const std::size_t large =
      construction_bytes(400'000, sim::msec(2000), &many);
  // 40x the sessions (same arrival rate, 4x the day)...
  EXPECT_GT(many, 35 * few);
  // ...and the same heap, up to the first session's churn leaves.
  constexpr std::size_t kSlack = 4096;
  EXPECT_LE(large, small + kSlack) << "10^4 users: " << small
                                   << " B, 4x10^5 users: " << large << " B";
  EXPECT_LE(small, large + kSlack) << "10^4 users: " << small
                                   << " B, 4x10^5 users: " << large << " B";
}

// Plays host 0 in place of the workload's host agent.  It denies every
// session that asks before `deny_until`.  When a later session asks from
// the root slot of a denied one while that one's first allocation timer is
// still pending, it sends the root a stale deny for the old session with
// the new one's slot and attempt number, then holds the new session's
// grant back past the old timer (but inside the new session's own 15 ms
// budget).  Both leftovers reach the slot while it is held by a session
// in the same phase, attempt and epoch they were meant for: a slot lookup
// that did not confirm the session id would count a deny and a timeout.
struct HostProbe {
  Node* host = nullptr;
  sim::SimTime deny_until = 0;
  // (root station, root slot) -> (sid, first request time) of the denied
  // session that last held the slot.
  std::map<std::pair<hw::StationId, std::uint64_t>,
           std::pair<std::uint64_t, sim::SimTime>>
      denied;
  std::uint64_t denies = 0;  // denials this host meant to send
  std::uint64_t reuses = 0;  // sessions that got a stale deny

  void reply(hw::StationId dst, std::uint64_t sid, std::uint64_t seq,
             bool grant) {
    hw::Frame r;
    r.kind = msg::kAllocReply;
    r.dst = dst;
    r.obj = sid;
    r.seq = seq;
    r.aux = grant ? 1 : 0;
    host->kernel().send(std::move(r));
  }

  void on_request(const hw::Frame& f) {
    const sim::SimTime now = host->simulator().now();
    // msg.hpp: a request's seq is (root slot << 8 | attempt).
    const std::uint64_t slot = f.seq >> 8;
    const std::uint64_t attempt = f.seq & 0xff;
    const auto key = std::make_pair(f.src, slot);
    const auto prev = denied.find(key);
    if (attempt == 0 && prev != denied.end() &&
        now - prev->second.second > sim::usec(3500) &&
        now - prev->second.second < sim::usec(14500)) {
      ++reuses;
      reply(f.src, prev->second.first, f.seq, /*grant=*/false);
      denied.erase(prev);
      host->simulator().post_after(
          sim::msec(12), [this, dst = f.src, sid = f.obj, seq = f.seq] {
            reply(dst, sid, seq, /*grant=*/true);
          });
      return;
    }
    if (now < deny_until) {
      ++denies;
      if (attempt == 0) denied[key] = {f.obj, now};
      reply(f.src, f.obj, f.seq, /*grant=*/false);
      return;
    }
    reply(f.src, f.obj, f.seq, /*grant=*/true);
  }
};

TEST(WorkloadStream, RecycledSlotDropsStaleFrames) {
  sim::Simulator sim;
  System sys(sim, SystemConfig{});  // 4 nodes, 1 host
  WorkloadConfig wcfg;
  wcfg.users = 500;
  wcfg.horizon = sim::msec(500);
  WorkloadGen gen(sys, wcfg, 7);
  HostProbe probe;
  probe.host = &sys.host(0);
  probe.deny_until = sim::msec(250);
  sys.host(0).kernel().register_handler(
      msg::kAllocReq, [p = &probe](const hw::Frame& f) { p->on_request(f); });

  gen.run();
  const WorkloadReport r = gen.report();
  ASSERT_GT(probe.reuses, 0u) << "no slot was reused in time: vacuous";
  ASSERT_GT(probe.denies, 0u);
  EXPECT_TRUE(r.all_accounted());
  // Every request was answered within its 15 ms budget, so no timer may
  // count a timeout, and only the denials this host meant count.
  EXPECT_EQ(r.alloc_timeouts, 0u);
  EXPECT_EQ(r.alloc_denied, probe.denies);
  EXPECT_EQ(r.late_grants_freed, 0u);
}

}  // namespace
}  // namespace hpcvorx::vorx
