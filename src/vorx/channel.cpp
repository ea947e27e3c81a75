#include "vorx/channel.hpp"

#include <cassert>

#include "vorx/process.hpp"

namespace hpcvorx::vorx {

Channel::Channel(ChannelService& svc, std::uint64_t id, std::uint64_t peer_id,
                 std::string name, hw::StationId peer)
    : svc_(svc),
      id_(id),
      peer_id_(peer_id),
      name_(std::move(name)),
      peer_(peer),
      write_mutex_(svc.kernel().simulator(), 1),
      ack_event_(svc.kernel().simulator()),
      read_mutex_(svc.kernel().simulator(), 1),
      data_event_(svc.kernel().simulator()) {}

sim::Task<void> Channel::write(Subprocess& sp, std::uint32_t bytes,
                               hw::Payload data) {
  assert(bytes <= kMaxChannelMsg && "channel messages are frame-limited");
  const CostModel& c = svc_.kernel().costs();
  // Stop-and-wait: at most one outstanding message per direction; further
  // writers queue here.
  co_await write_mutex_.acquire();
  // write() syscall + kernel send path + copy to the interface.
  co_await sp.run_system(c.chan_write_fixed +
                         static_cast<sim::Duration>(bytes) *
                             c.chan_write_per_byte);
  hw::Frame f;
  f.kind = msg::kChanData;
  f.obj = peer_id_;   // addressed to the remote end
  f.aux = id_;        // so the remote kernel can ACK this end
  f.dst = peer_;
  f.seq = ++tx_seq_;
  f.payload_bytes = bytes;
  f.data = std::move(data);
  inflight_ = f;  // retained until ACKed: the retransmission source (§4)
  has_inflight_ = true;
  ack_event_.reset();
  svc_.kernel().send(std::move(f));
  ++sent_;
  // Block until the receiving kernel acknowledges.
  writer_blocked_ = true;
  blocked_writer_ = &sp;
  sp.set_state(SpState::kBlockedOutput);
  {
    BlockedScope blocked(svc_.census(), BlockReason::kOutput);
    co_await ack_event_.wait();
  }
  writer_blocked_ = false;
  blocked_writer_ = nullptr;
  sp.set_state(SpState::kRunning);
  has_inflight_ = false;
  // ACK interrupt processing + writer wakeup/dispatch.
  co_await sp.run_system(c.chan_ack_fixed + c.chan_wakeup);
  write_mutex_.release();
}

sim::Task<ChannelMsg> Channel::read(Subprocess& sp) {
  const CostModel& c = svc_.kernel().costs();
  co_await read_mutex_.acquire();
  co_await sp.run_system(c.chan_read_fixed);
  while (rxq_.empty()) {
    data_event_.reset();
    if (!rxq_.empty()) break;
    reader_blocked_ = true;
    blocked_reader_ = &sp;
    sp.set_state(SpState::kBlockedInput);
    {
      BlockedScope blocked(svc_.census(), BlockReason::kInput);
      co_await data_event_.wait();
    }
    reader_blocked_ = false;
    blocked_reader_ = nullptr;
    sp.set_state(SpState::kRunning);
  }
  ChannelMsg m = std::move(rxq_.front());
  rxq_.pop_front();
  ++received_;
  if (retransmit_owed_ && rxq_.size() < svc_.side_buffers()) {
    // A sender was refused for lack of side buffers; space exists now, so
    // "the receiver requests retransmission when buffer space becomes
    // available" (§4).
    retransmit_owed_ = false;
    svc_.send_retransmit_request(refused_end_, refused_src_);
  }
  read_mutex_.release();
  co_return m;
}

sim::Simulator& ServerPort::service_simulator() {
  return svc_.kernel().simulator();
}

sim::Task<Channel*> ServerPort::accept(Subprocess& sp) {
  co_await sp.run_system(svc_.kernel().costs().chan_read_fixed);
  if (!acceptq_.empty()) {
    co_return co_await acceptq_.recv();
  }
  sp.set_state(SpState::kBlockedInput);
  Channel* ch = nullptr;
  {
    BlockedScope blocked(svc_.census(), BlockReason::kInput);
    ch = co_await acceptq_.recv();
  }
  sp.set_state(SpState::kRunning);
  co_return ch;
}

ChannelService::ChannelService(Kernel& kernel, NodeCensus& census,
                               std::size_t side_buffers)
    : kernel_(kernel),
      census_(census),
      side_buffers_(side_buffers),
      delivery_pulse_(kernel.simulator()) {
  kernel_.register_handler(msg::kChanData,
                           [this](const hw::Frame& f) { on_data(f); });
  kernel_.register_handler(msg::kChanAck,
                           [this](const hw::Frame& f) { on_ack(f); });
  kernel_.register_handler(
      msg::kChanRetransmitReq,
      [this](const hw::Frame& f) { on_retransmit_req(f); });
}

Channel* ChannelService::create_channel(std::uint64_t id, std::uint64_t peer_id,
                                        const std::string& name,
                                        hw::StationId peer) {
  channels_.push_back(
      std::make_unique<Channel>(*this, id, peer_id, name, peer));
  Channel* ch = channels_.back().get();
  by_id_[id] = ch;
  // Replay data frames that raced ahead of the open reply.
  auto it = orphans_.find(id);
  if (it != orphans_.end()) {
    for (hw::Frame& f : it->second) deliver(ch, std::move(f));
    orphans_.erase(it);
  }
  return ch;
}

ServerPort* ChannelService::create_server_port(const std::string& name) {
  auto [it, inserted] =
      servers_.emplace(name, std::make_unique<ServerPort>(*this, name));
  assert(inserted && "server name already registered on this node");
  (void)inserted;
  return it->second.get();
}

ServerPort* ChannelService::server_port(const std::string& name) {
  auto it = servers_.find(name);
  return it == servers_.end() ? nullptr : it->second.get();
}

Channel* ChannelService::find(std::uint64_t id) {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : it->second;
}

void ChannelService::on_data(hw::Frame f) {
  Channel* ch = find(f.obj);
  if (ch == nullptr) {
    orphans_[f.obj].push_back(std::move(f));
    return;
  }
  deliver(ch, std::move(f));
}

sim::Proc ChannelService::deliver(Channel* ch, hw::Frame f) {
  // Kernel work to file the message and produce the ACK.
  co_await kernel_.cpu().run(sim::prio::kKernel,
                             kernel_.costs().chan_deliver_fixed,
                             sim::Category::kSystem, sim::kBorrowedContext, 0);
  if (ch->rxq_.size() >= side_buffers_) {
    // Out of side buffers (rare, §4): stay silent and owe the sender a
    // retransmission request once a buffer frees.  The sender's process is
    // blocked holding the message, so nothing is lost.
    ch->retransmit_owed_ = true;
    ch->refused_src_ = f.src;
    ch->refused_end_ = f.aux;
    co_return;
  }
  ch->rxq_.push_back(ChannelMsg{f.payload_bytes, std::move(f.data), f.seq, f.src});
  hw::Frame ack;
  ack.kind = msg::kChanAck;
  ack.obj = f.aux;  // the sending end's id
  ack.dst = f.src;
  ack.seq = f.seq;
  kernel_.send(std::move(ack));
  ch->data_event_.set();
  delivery_pulse_.set();
}

void ChannelService::on_ack(hw::Frame f) {
  Channel* ch = find(f.obj);
  if (ch == nullptr) return;
  ch->ack_event_.set();
}

void ChannelService::on_retransmit_req(hw::Frame f) {
  Channel* ch = find(f.obj);
  if (ch == nullptr || !ch->has_inflight_) return;
  // Resend the retained message (costed kernel work).
  [](ChannelService* svc, hw::Frame again) -> sim::Proc {
    co_await svc->kernel_.cpu().run(
        sim::prio::kKernel, svc->kernel_.costs().chan_write_fixed,
        sim::Category::kSystem, sim::kBorrowedContext, 0);
    svc->kernel_.send(std::move(again));
  }(this, ch->inflight_);
}

sim::Proc ChannelService::send_retransmit_request(std::uint64_t peer_end,
                                                  hw::StationId dst) {
  ++retransmit_requests_;
  co_await kernel_.cpu().run(sim::prio::kKernel,
                             kernel_.costs().chan_deliver_fixed,
                             sim::Category::kSystem, sim::kBorrowedContext, 0);
  hw::Frame req;
  req.kind = msg::kChanRetransmitReq;
  req.obj = peer_end;
  req.dst = dst;
  kernel_.send(std::move(req));
}

}  // namespace hpcvorx::vorx
