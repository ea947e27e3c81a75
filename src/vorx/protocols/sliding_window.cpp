#include "vorx/protocols/sliding_window.hpp"

#include <cassert>

#include "vorx/node.hpp"
#include "vorx/process.hpp"

namespace hpcvorx::vorx {

sim::Task<void> SlidingWindowSender::send(Subprocess& sp, std::uint32_t bytes,
                                          hw::Payload data) {
  const CostModel& c = sp.node().costs();
  // User-level window bookkeeping (credit check, buffer walk, checksum).
  co_await sp.compute(c.swp_sender_bookkeep +
                      static_cast<sim::Duration>(bytes) * c.swp_sender_per_byte);
  // Absorb any credits already queued by the ISR.
  while (auto cf = link_.poll()) {
    assert(cf->aux == kCreditAux);
    ++credits_;
  }
  if (credits_ == 0) {
    hw::Frame cf = co_await link_.recv(sp);  // wait for a credit
    assert(cf.aux == kCreditAux);
    (void)cf;
    ++credits_;
    while (auto more = link_.poll()) {
      assert(more->aux == kCreditAux);
      ++credits_;
    }
    co_await sp.compute(c.swp_block_wakeup);
  }
  --credits_;
  co_await link_.send(sp, bytes, std::move(data), ++seq_);
}

sim::Task<void> SlidingWindowReceiver::start(Subprocess& sp) {
  const CostModel& c = sp.node().costs();
  for (int i = 0; i < buffers_; ++i) {
    co_await sp.compute(c.swp_credit_send);
    co_await link_.send(sp, 0, nullptr, 0, kCreditAux);
  }
}

sim::Task<hw::Frame> SlidingWindowReceiver::recv(Subprocess& sp) {
  const CostModel& c = sp.node().costs();
  const bool will_block = link_.pending() == 0;
  hw::Frame f = co_await link_.recv(sp);
  assert(f.aux != kCreditAux && "credit frame on the data direction");
  if (will_block) co_await sp.compute(c.swp_block_wakeup);
  // Copy the message out of the protocol buffer, then return the buffer.
  co_await sp.compute(c.swp_receiver_bookkeep +
                      static_cast<sim::Duration>(f.payload_bytes) *
                          c.swp_receiver_per_byte);
  ++received_;
  co_await sp.compute(c.swp_credit_send);
  co_await link_.send(sp, 0, nullptr, 0, kCreditAux);
  co_return f;
}

}  // namespace hpcvorx::vorx
