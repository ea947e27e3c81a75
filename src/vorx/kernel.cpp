#include "vorx/kernel.hpp"

#include <cassert>
#include <utility>

#include "vorx/udco.hpp"

namespace hpcvorx::vorx {

Kernel::Kernel(sim::Simulator& sim, hw::Endpoint& ep, sim::Cpu& cpu,
               const CostModel& costs)
    : sim_(sim), ep_(ep), cpu_(cpu), costs_(costs), tx_ready_ev_(sim) {
  // The arrival interrupt.  Order contract (DESIGN.md §13): the parked
  // pump is resumed *inline* — within the delivering event, exactly where
  // the old per-burst rx_service() spawn ran — so the CPU charge for the
  // head frame is requested at the same virtual instant, in the same
  // event-sequence position, as event-at-a-time delivery.  Arrivals while
  // the pump is awake (mid-burst, awaiting a CPU charge) don't resume
  // anything: the frame stays staged in the hardware receive ring, the
  // per-(receiver,source) FIFO of which *is* the pinned delivery order,
  // and the pump's drain loop reaches it in that order.
  ep_.set_rx_cb([this] {
    ++rx_irqs_;
    if (rx_park_.kick([this] { rx_pump(); })) ++rx_resumes_;
  });
  ep_.set_tx_ready_cb([this] { tx_ready_ev_.set(); });
}

void Kernel::register_handler(std::uint32_t kind, Handler h) {
  assert(kind < msg::kNumKinds && "register_handler: kind outside msg::");
  handlers_[kind] = std::move(h);
}

void Kernel::register_object(Udco& obj) { objects_[obj.id()] = &obj; }

void Kernel::unregister_object(std::uint64_t obj) { objects_.erase(obj); }

void Kernel::send(hw::Frame f) {
  txq_.push_back(std::move(f));
  txq_peak_ = std::max(txq_peak_, txq_.size());
  sample_txq();
  if (!tx_active_) tx_service();
}

// Samples the transmit-side counters into the simulator's timeline.
void Kernel::sample_txq() {
  sim::CounterTimeline& ct = sim_.counters();
  if (!ct.enabled()) return;
  ct.sample(cpu_.name(), "txq_depth", sim_.now(),
            static_cast<double>(txq_.size()));
  ct.sample(cpu_.name(), "tx_blocked_us", sim_.now(),
            sim::to_usec(tx_blocked_));
}

sim::Proc Kernel::rx_pump() {
  for (;;) {
    // The first activation finds the frame that started it already staged.
    co_await rx_park_.park(ep_.rx_peek() != nullptr);
    while (ep_.rx_peek() != nullptr) {
      const hw::Frame* head = ep_.rx_peek();
      sim::Duration cost;
      sim::Category cat;
      if (head->kind == msg::kUdco && objects_.count(head->obj) != 0) {
        // User-supplied ISR reads the frame directly: user-level costs.
        cost = costs_.udco_isr_fixed +
               static_cast<sim::Duration>(head->payload_bytes) *
                   costs_.udco_isr_per_byte;
        cat = sim::Category::kUser;
      } else {
        cost = costs_.rx_interrupt +
               static_cast<sim::Duration>(head->payload_bytes) *
                   costs_.rx_copy_per_byte;
        cat = sim::Category::kSystem;
      }
      co_await cpu_.run(sim::prio::kInterrupt, cost, cat,
                        sim::kBorrowedContext, costs_.interrupt_dispatch);
      // The frame leaves the hardware buffer only now that it has been
      // copied, which is what lets the interconnect push the next one.
      hw::Frame f = *ep_.rx_take();
      ++rx_count_;
      rx_bytes_ += f.payload_bytes;
      dispatch(std::move(f));
    }
  }
}

void Kernel::dispatch(hw::Frame f) {
  if (f.kind == msg::kUdco) {
    // Looked up again after the charge: the object may have closed while
    // its frame waited, and then the frame goes to the kUdco handler.
    const auto it = objects_.find(f.obj);
    if (it != objects_.end()) {
      it->second->deliver(std::move(f));
      return;
    }
  }
  if (f.kind < handlers_.size() && handlers_[f.kind]) {
    handlers_[f.kind](std::move(f));
    return;
  }
  ++dropped_;
}

sim::Proc Kernel::tx_service() {
  tx_active_ = true;
  while (!txq_.empty()) {
    if (!ep_.tx_ready()) {
      tx_ready_ev_.reset();
      if (!ep_.tx_ready()) {
        const sim::SimTime blocked_at = sim_.now();
        co_await tx_ready_ev_.wait();
        tx_blocked_ += sim_.now() - blocked_at;
      }
      continue;
    }
    hw::Frame f = std::move(txq_.front());
    txq_.pop_front();
    ++tx_count_;
    tx_bytes_ += f.payload_bytes;
    ep_.transmit(std::move(f));
    sample_txq();
  }
  tx_active_ = false;
}

}  // namespace hpcvorx::vorx
