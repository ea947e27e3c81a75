#include "vorx/object_manager.hpp"

#include <cassert>

#include "vorx/process.hpp"

namespace hpcvorx::vorx {

namespace {

hw::Payload encode_name(hw::FramePool& pool, const std::string& name) {
  std::vector<std::byte> bytes = pool.buffer();
  bytes.resize(name.size());
  for (std::size_t i = 0; i < name.size(); ++i) {
    bytes[i] = static_cast<std::byte>(name[i]);
  }
  return pool.make(std::move(bytes));
}

std::string decode_name(const hw::Frame& f) {
  assert(f.data != nullptr);
  std::string s(f.data->size(), '\0');
  for (std::size_t i = 0; i < s.size(); ++i) {
    s[i] = static_cast<char>((*f.data)[i]);
  }
  return s;
}

std::string key_of(std::uint32_t type, const std::string& name) {
  return std::to_string(type) + ":" + name;
}

}  // namespace

OmService::OmService(Kernel& kernel, ChannelService& chans, Locator locate)
    : kernel_(kernel),
      chans_(chans),
      locate_(std::move(locate)),
      // Manager daemons get distinct CPU-owner identities so running one
      // incurs a real context switch, as the resource-manager process did
      // on the host.  Minted per-simulator (shard-ready, R6).
      mgr_owner_(kernel.simulator().allocate_id()) {
  kernel_.register_handler(msg::kOmOpen,
                           [this](const hw::Frame& f) { on_request(f); });
  kernel_.register_handler(msg::kOmRegisterServer,
                           [this](const hw::Frame& f) { on_request(f); });
  kernel_.register_handler(msg::kOmReply,
                           [this](const hw::Frame& f) { on_reply(f); });
  kernel_.register_handler(msg::kOmAccept,
                           [this](const hw::Frame& f) { on_accept(f); });
}

sim::Task<OpenResult> OmService::open_pair(Subprocess& sp, std::string name,
                                           std::uint32_t type) {
  return do_request(sp, msg::kOmOpen, std::move(name), type);
}

sim::Task<void> OmService::register_server(Subprocess& sp, std::string name) {
  (void)co_await do_request(sp, msg::kOmRegisterServer, std::move(name),
                            kObjChannel);
}

sim::Task<OpenResult> OmService::do_request(Subprocess& sp, std::uint32_t kind,
                                            std::string name,
                                            std::uint32_t type) {
  co_await sp.run_system(kernel_.costs().om_open_client);
  const std::uint64_t rid = next_req_++;
  sim::Promise<OpenResult> p(kernel_.simulator());
  awaiting_.emplace(rid, p);
  hw::Frame f;
  f.kind = kind;
  f.dst = locate_(name);
  f.seq = rid;
  f.aux = type;
  f.payload_bytes = static_cast<std::uint32_t>(name.size()) + 8;
  f.data = encode_name(kernel_.frame_pool(), name);
  kernel_.send(std::move(f));
  sp.set_state(SpState::kBlockedOpen);
  OpenResult r;
  {
    BlockedScope blocked(chans_.census(), BlockReason::kOther);
    r = co_await p.future();
  }
  sp.set_state(SpState::kRunning);
  co_return r;
}

void OmService::on_request(hw::Frame f) {
  reqq_.push_back(std::move(f));
  max_queue_ = std::max(max_queue_, reqq_.size());
  if (!worker_active_) worker();
}

sim::Proc OmService::worker() {
  worker_active_ = true;
  while (!reqq_.empty()) {
    hw::Frame f = std::move(reqq_.front());
    reqq_.pop_front();
    // Each open request costs real manager CPU — serialized here, which is
    // exactly the §3.2 bottleneck when one manager serves everyone.
    co_await kernel_.cpu().run(
        sim::prio::kKernel, kernel_.costs().om_open_service,
        sim::Category::kSystem, mgr_owner_, kernel_.costs().subprocess_switch);
    handle_request(f);
    ++opens_served_;
  }
  worker_active_ = false;
}

void OmService::handle_request(const hw::Frame& f) {
  const std::string name = decode_name(f);
  const std::string key = key_of(static_cast<std::uint32_t>(f.aux), name);
  if (f.kind == msg::kOmRegisterServer) {
    servers_[key] = f.src;
    send_reply(f.src, f.seq, 0, 0, -1);
    return;
  }
  // Symmetric open: match a registered server first, then a pending open.
  // Every end of a connection gets its own object id, so both ends of a
  // same-node (loopback) channel stay distinguishable.
  if (auto it = servers_.find(key); it != servers_.end()) {
    const std::uint64_t client_end = make_id();
    const std::uint64_t server_end = make_id();
    send_reply(f.src, f.seq, client_end, server_end, it->second);
    hw::Frame accept;
    accept.kind = msg::kOmAccept;
    accept.dst = it->second;
    accept.aux = (server_end << 32) | client_end;
    accept.obj = static_cast<std::uint64_t>(f.src);
    accept.payload_bytes = static_cast<std::uint32_t>(name.size()) + 8;
    accept.data = encode_name(kernel_.frame_pool(), name);
    kernel_.send(std::move(accept));
    return;
  }
  auto& waiting = pending_[key];
  if (!waiting.empty()) {
    auto [other_station, other_req] = waiting.front();
    waiting.pop_front();
    const std::uint64_t end_a = make_id();
    const std::uint64_t end_b = make_id();
    send_reply(f.src, f.seq, end_a, end_b, other_station);
    send_reply(other_station, other_req, end_b, end_a, f.src);
    return;
  }
  waiting.emplace_back(f.src, f.seq);
}

void OmService::send_reply(hw::StationId dst, std::uint64_t reqid,
                           std::uint64_t own_end, std::uint64_t peer_end,
                           hw::StationId peer) {
  hw::Frame r;
  r.kind = msg::kOmReply;
  r.dst = dst;
  r.seq = reqid;
  r.aux = (own_end << 32) | peer_end;
  r.obj = static_cast<std::uint64_t>(static_cast<std::int64_t>(peer));
  kernel_.send(std::move(r));
}

std::uint64_t OmService::make_id() {
  // 32-bit end ids: station in the high decimal digits, counter below.
  return (static_cast<std::uint64_t>(kernel_.station()) + 1) * 1'000'000ULL +
         next_obj_++;
}

void OmService::on_reply(hw::Frame f) {
  auto it = awaiting_.find(f.seq);
  if (it == awaiting_.end()) return;
  OpenResult r;
  r.id = f.aux >> 32;
  r.peer_id = f.aux & 0xffffffffULL;
  r.peer = static_cast<hw::StationId>(static_cast<std::int64_t>(f.obj));
  it->second.set_value(r);
  awaiting_.erase(it);
}

void OmService::on_accept(hw::Frame f) {
  const std::string name = decode_name(f);
  ServerPort* port = chans_.server_port(name);
  if (port == nullptr) return;  // server went away; drop
  Channel* ch = chans_.create_channel(
      f.aux >> 32, f.aux & 0xffffffffULL, name,
      static_cast<hw::StationId>(static_cast<std::int64_t>(f.obj)));
  port->acceptq_.push(ch);
}

}  // namespace hpcvorx::vorx
