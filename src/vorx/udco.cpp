#include "vorx/udco.hpp"

#include "vorx/process.hpp"

namespace hpcvorx::vorx {

Udco::Udco(Kernel& kernel, NodeCensus& census, std::uint64_t id,
           std::uint64_t peer_id, std::string name, hw::StationId peer)
    : kernel_(kernel),
      census_(census),
      id_(id),
      peer_id_(peer_id),
      name_(std::move(name)),
      peer_(peer),
      arrival_(kernel.simulator()) {
  kernel_.register_object(*this);
}

Udco::~Udco() { kernel_.unregister_object(id_); }

void Udco::deliver(hw::Frame f) {
  ++received_;
  if (isr_) {
    isr_(std::move(f));
    return;
  }
  // Default ISR: queue with no flow control (the receiver is responsible
  // for keeping up — hardware flow control already made delivery reliable).
  inbox_.push_back(std::move(f));
  arrival_.set();
}

void Udco::set_isr(std::function<void(hw::Frame)> isr) { isr_ = std::move(isr); }

sim::Task<void> Udco::send(Subprocess& sp, std::uint32_t bytes,
                           hw::Payload data, std::uint64_t seq,
                           std::uint64_t aux) {
  const CostModel& c = kernel_.costs();
  // Direct hardware access from application code: user-level cost only.
  co_await sp.compute(c.udco_send_fixed +
                      static_cast<sim::Duration>(bytes) * c.udco_send_per_byte);
  hw::Frame f;
  f.kind = msg::kUdco;
  f.obj = peer_id_;
  f.dst = peer_;
  f.seq = seq;
  f.aux = aux;
  f.payload_bytes = bytes;
  f.data = std::move(data);
  kernel_.send(std::move(f));
  ++sent_;
}

sim::Task<void> Udco::send_gather(Subprocess& sp,
                                  const std::vector<hw::Payload>& pieces,
                                  std::uint64_t seq, std::uint64_t aux) {
  std::vector<std::byte> merged = kernel_.frame_pool().buffer();
  for (const hw::Payload& p : pieces) {
    assert(p != nullptr);
    merged.insert(merged.end(), p->begin(), p->end());
  }
  assert(merged.size() <= hw::kMaxPayloadBytes);
  const CostModel& c = kernel_.costs();
  // One descriptor-setup cost for the whole vector, then per-byte copies.
  co_await sp.compute(c.udco_send_fixed +
                      static_cast<sim::Duration>(merged.size()) *
                          c.udco_send_per_byte);
  hw::Frame f;
  f.kind = msg::kUdco;
  f.obj = peer_id_;
  f.dst = peer_;
  f.seq = seq;
  f.aux = aux;
  f.payload_bytes = static_cast<std::uint32_t>(merged.size());
  f.data = kernel_.frame_pool().make(std::move(merged));
  kernel_.send(std::move(f));
  ++sent_;
}

sim::Task<hw::Frame> Udco::recv(Subprocess& sp) {
  while (inbox_.empty()) {
    arrival_.reset();
    if (!inbox_.empty()) break;
    sp.set_state(SpState::kBlockedInput);
    {
      BlockedScope blocked(census_, BlockReason::kInput);
      co_await arrival_.wait();
    }
    sp.set_state(SpState::kRunning);
  }
  hw::Frame f = std::move(inbox_.front());
  inbox_.pop_front();
  co_return f;
}

std::optional<hw::Frame> Udco::poll() {
  if (inbox_.empty()) return std::nullopt;
  hw::Frame f = std::move(inbox_.front());
  inbox_.pop_front();
  return f;
}

}  // namespace hpcvorx::vorx
