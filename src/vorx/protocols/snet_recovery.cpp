#include "vorx/protocols/snet_recovery.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace hpcvorx::vorx {

namespace {
// Local frame kinds on the S/NET (disjoint software world from the HPC).
constexpr std::uint32_t kSnetData = 1;
constexpr std::uint32_t kSnetRequest = 2;
constexpr std::uint32_t kSnetGrant = 3;
}  // namespace

SnetStation::SnetStation(sim::Simulator& sim, hw::SnetBus& bus, int id,
                         const CostModel& costs, std::uint64_t rng_seed)
    : sim_(sim),
      bus_(bus),
      id_(id),
      costs_(costs),
      cpu_(sim, "snet" + std::to_string(id)),
      rng_(rng_seed),
      inbox_(sim),
      bus_mutex_(sim, 1),
      grant_ev_(sim) {
  // Same order contract as Kernel's rx interrupt: the parked pump is
  // resumed inline, exactly where the old per-burst drain_service() spawn
  // ran; mid-burst arrivals stay staged in the fifo and are drained in
  // fifo order without another resume.
  bus_.set_rx_cb(id_,
                 [this] { drain_park_.kick([this] { drain_pump(); }); });
}

sim::Proc SnetStation::drain_pump() {
  for (;;) {
    co_await drain_park_.park(bus_.fifo_peek(id_) != nullptr);
    while (bus_.fifo_peek(id_) != nullptr) {
      const std::uint32_t total = bus_.fifo_peek(id_)->bytes;
      co_await cpu_.run(sim::prio::kInterrupt, costs_.rx_interrupt,
                        sim::Category::kSystem, sim::kBorrowedContext,
                        costs_.interrupt_dispatch);
      // Reading words out of the fifo is software work, and the space frees
      // *continuously* — which is what lets a concurrent (doomed) arrival
      // consume it before a whole message's worth accumulates: the §2
      // lockout mechanism.
      std::uint32_t remaining = total;
      while (remaining > 0) {
        const std::uint32_t quantum = std::min<std::uint32_t>(64, remaining);
        co_await cpu_.run(sim::prio::kInterrupt,
                          static_cast<sim::Duration>(quantum) *
                              costs_.snet_read_per_byte,
                          sim::Category::kSystem, sim::kBorrowedContext, 0);
        bus_.fifo_release(id_, quantum);
        remaining -= quantum;
      }
      auto frag = bus_.fifo_pop(id_);
      assert(frag.has_value());
      if (!frag->complete) {
        // The §2 residue: read it, recognise the truncation, throw it away.
        ++discarded_;
        try_grant();  // draining may have made room for a granted message
        continue;
      }
      dispatch(std::move(frag->frame));
    }
  }
}

void SnetStation::dispatch(hw::Frame f) {
  switch (f.kind) {
    case kSnetRequest:
      want_to_send_.push_back(f.src);
      try_grant();
      break;
    case kSnetGrant:
      grant_ev_.set();
      break;
    default:
      ++received_;
      if (reservation_server_ && f.src == authorized_) {
        authorized_ = -1;  // transfer complete; the next sender may go
      }
      inbox_.push(std::move(f));
      try_grant();
      break;
  }
}

void SnetStation::try_grant() {
  if (!reservation_server_ || authorized_ != -1 || want_to_send_.empty()) {
    return;
  }
  // Hold the grant until the fifo can absorb the whole expected message.
  if (bus_.fifo_free(id_) < expected_bytes_ + hw::kHeaderBytes) return;
  authorized_ = want_to_send_.front();
  want_to_send_.pop_front();
  hw::Frame grant;
  grant.kind = kSnetGrant;
  grant.dst = authorized_;
  // Fire-and-forget: grants are tiny and retried on the rare overflow.
  [](SnetStation* self, hw::Frame g) -> sim::Proc {
    while (!co_await self->bus_send(g)) {
    }
  }(this, std::move(grant));
}

sim::Task<bool> SnetStation::bus_send(hw::Frame f) {
  co_await bus_mutex_.acquire();
  co_await cpu_.run(sim::prio::kKernel, costs_.snet_send_fixed,
                    sim::Category::kSystem, sim::kBorrowedContext, 0);
  sim::Promise<bool> done(sim_);
  bus_.request_send(id_, std::move(f),
                    [done](bool ok) mutable { done.set_value(ok); });
  const bool ok = co_await done.future();
  bus_mutex_.release();
  co_return ok;
}

sim::Task<SnetStation::SendOutcome> SnetStation::send(int dst,
                                                      std::uint32_t bytes,
                                                      SnetPolicy policy) {
  SendOutcome out;
  hw::Frame f;
  f.kind = kSnetData;
  f.dst = dst;
  f.payload_bytes = bytes;

  if (policy == SnetPolicy::kReservation) {
    // Short request first; data only after the receiver's grant.
    hw::Frame req;
    req.kind = kSnetRequest;
    req.dst = dst;
    grant_ev_.reset();
    while (true) {
      ++out.attempts;
      if (co_await bus_send(req)) break;
    }
    co_await grant_ev_.wait();
    ++out.attempts;
    const bool ok = co_await bus_send(std::move(f));
    assert(ok && "reservation guaranteed fifo space");
    (void)ok;
    co_return out;
  }

  sim::Duration backoff = costs_.snet_backoff_initial;
  while (true) {
    ++out.attempts;
    if (co_await bus_send(f)) co_return out;
    if (policy == SnetPolicy::kRandomBackoff) {
      // Random wait, doubling per consecutive failure (Ethernet-style).
      const auto wait = static_cast<sim::Duration>(
          rng_.below(static_cast<std::uint64_t>(backoff)) + 1);
      co_await sim::delay(sim_, wait);
      backoff = std::min<sim::Duration>(backoff * 2, sim::msec(20));
    }
    // kBusyRetry: no delay at all — the §2 lockout recipe.
  }
}

sim::Task<hw::Frame> SnetStation::recv() {
  hw::Frame f = co_await inbox_.recv();
  co_return f;
}

void SnetStation::serve_reservations(std::uint32_t expected_bytes) {
  reservation_server_ = true;
  expected_bytes_ = expected_bytes;
}

}  // namespace hpcvorx::vorx
