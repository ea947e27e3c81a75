#include "hw/snet.hpp"

#include <algorithm>

namespace hpcvorx::hw {

SnetBus::SnetBus(sim::Simulator& sim, int num_processors, Params p)
    : sim_(sim),
      params_(p),
      fifos_(static_cast<std::size_t>(num_processors)),
      fifo_used_(static_cast<std::size_t>(num_processors), 0),
      rx_cb_(static_cast<std::size_t>(num_processors)) {}

void SnetBus::request_send(int src, Frame f, std::function<void(bool)> done) {
  assert(src >= 0 && src < num_processors());
  assert(f.dst >= 0 && f.dst < num_processors());
  assert(!(xfer_ && xfer_->src == src) &&
         std::none_of(queue_.begin(), queue_.end(),
                      [src](const Request& r) { return r.src == src; }) &&
         "one outstanding S/NET send per processor");
  f.src = src;
  f.injected_at = sim_.now();
  queue_.push_back(Request{src, std::move(f), std::move(done)});
  if (!bus_busy_) grant_next();
}

void SnetBus::grant_next() {
  if (queue_.empty()) return;
  bus_busy_ = true;
  ++grants_;
  auto it = queue_.begin();
  if (params_.fixed_priority_arbitration) {
    for (auto j = queue_.begin(); j != queue_.end(); ++j) {
      if (j->src < it->src) it = j;
    }
  }
  Request req = std::move(*it);
  queue_.erase(it);
  const sim::Duration xfer =
      params_.arbitration +
      static_cast<sim::Duration>(req.frame.wire_bytes()) * params_.ns_per_byte;
  xfer_ = std::move(req);
  // The bus serves one transfer at a time, so its completion always fires.
  sim_.post_after(xfer, [this] { finish_transfer(); });
}

void SnetBus::finish_transfer() {
  Request req = std::move(*xfer_);
  xfer_.reset();
  const auto dst = static_cast<std::size_t>(req.frame.dst);
  const std::uint32_t need = req.frame.wire_bytes();
  const std::uint32_t free = params_.fifo_bytes - fifo_used_[dst];
  bool accepted = false;
  bool landed = false;
  if (need <= free) {
    fifo_used_[dst] += need;
    fifos_[dst].push_back(Fragment{std::move(req.frame), need, true});
    ++delivered_;
    accepted = true;
    landed = true;
  } else {
    // Overflow: the fifo keeps whatever arrived before it filled; the
    // receiving software must read and discard this residue (§2).
    ++overflows_;
    if (free > 0) {
      fifo_used_[dst] += free;
      fifos_[dst].push_back(Fragment{req.frame, free, false});
      landed = true;
    }
  }
  if (landed && rx_cb_[dst]) rx_cb_[dst]();
  // Report completion (or the fifo-full signal) to the sender's software.
  if (req.done) req.done(accepted);
  bus_busy_ = false;
  grant_next();
}

const SnetBus::Fragment* SnetBus::fifo_peek(int proc) const {
  const auto& q = fifos_[static_cast<std::size_t>(proc)];
  return q.empty() ? nullptr : &q.front();
}

std::optional<SnetBus::Fragment> SnetBus::fifo_take(int proc) {
  auto& q = fifos_[static_cast<std::size_t>(proc)];
  if (q.empty()) return std::nullopt;
  fifo_used_[static_cast<std::size_t>(proc)] -= q.front().bytes;
  return fifo_pop(proc);
}

void SnetBus::fifo_release(int proc, std::uint32_t bytes) {
  assert(bytes <= fifo_used_[static_cast<std::size_t>(proc)]);
  fifo_used_[static_cast<std::size_t>(proc)] -= bytes;
}

std::optional<SnetBus::Fragment> SnetBus::fifo_pop(int proc) {
  auto& q = fifos_[static_cast<std::size_t>(proc)];
  if (q.empty()) return std::nullopt;
  Fragment fr = std::move(q.front());
  q.pop_front();
  return fr;
}

}  // namespace hpcvorx::hw
