#include "vorx/stub.hpp"

#include <cassert>
#include <cstring>

#include "vorx/node.hpp"
#include "vorx/process.hpp"

namespace hpcvorx::vorx {

namespace {

// Syscall request header carried at the front of the frame payload.
struct ReqHeader {
  std::uint32_t op;
  std::int64_t fd;
  std::uint64_t arg;
  std::uint64_t client;
};

hw::Payload encode_request(hw::FramePool& pool, const ReqHeader& h,
                           const std::byte* body, std::size_t body_len) {
  std::vector<std::byte> bytes = pool.buffer();
  bytes.resize(sizeof(ReqHeader) + body_len);
  std::memcpy(bytes.data(), &h, sizeof h);
  if (body_len > 0) std::memcpy(bytes.data() + sizeof h, body, body_len);
  return pool.make(std::move(bytes));
}

ReqHeader decode_header(const hw::Frame& f) {
  ReqHeader h{};
  assert(f.data && f.data->size() >= sizeof h);
  std::memcpy(&h, f.data->data(), sizeof h);
  return h;
}

std::string decode_body_string(const hw::Frame& f) {
  const std::size_t n = f.data->size() - sizeof(ReqHeader);
  std::string s(n, '\0');
  std::memcpy(s.data(), f.data->data() + sizeof(ReqHeader), n);
  return s;
}

}  // namespace

Stub::Stub(Node& host, std::uint64_t id, HostEnv& env)
    : host_(host), id_(id), env_(env),
      // Stubs run with their own CPU-owner identity; ids come from the
      // owning simulator so two shards never share a counter (R6).
      owner_(host.simulator().allocate_id()) {}

Stub::~Stub() { host_.remove_stub(id_); }

void Stub::on_request(hw::Frame f) {
  reqq_.push_back(std::move(f));
  if (!serving_) serve();
}

sim::Proc Stub::serve() {
  serving_ = true;
  while (reqq_head_ < reqq_.size()) {
    hw::Frame f = std::move(reqq_[reqq_head_++]);
    if (reqq_head_ == reqq_.size()) {
      reqq_.clear();
      reqq_head_ = 0;
    }
    const ReqHeader h = decode_header(f);
    // The stub is an ordinary UNIX process on the host.
    co_await host_.cpu().run(sim::prio::kUserDefault,
                             host_.costs().stub_syscall, sim::Category::kUser,
                             owner_, host_.costs().subprocess_switch);
    SyscallResult res;
    switch (static_cast<Sys>(h.op)) {
      case Sys::kOpen: {
        const std::string path = decode_body_string(f);
        if (static_cast<int>(fds_.size()) >= kMaxOpenFiles) {
          res.value = -1;  // EMFILE: the SunOS 32-descriptor limit (§3.3)
        } else {
          if (!env_.file_exists(path)) env_.create_file(path, {});
          const int fd = next_fd_++;
          fds_[fd] = {path, 0};
          res.value = fd;
        }
        break;
      }
      case Sys::kClose: {
        res.value = fds_.erase(static_cast<int>(h.fd)) != 0 ? 0 : -1;
        break;
      }
      case Sys::kRead: {
        auto it = fds_.find(static_cast<int>(h.fd));
        if (it == fds_.end()) {
          res.value = -1;
          break;
        }
        const std::vector<std::byte>* file = env_.file(it->second.first);
        const std::size_t off = it->second.second;
        const std::size_t avail = file != nullptr && off < file->size()
                                      ? file->size() - off
                                      : 0;
        const std::size_t n = std::min<std::size_t>(avail, h.arg);
        if (n > 0) {
          res.data = host_.frame_pool().make_copy(file->data() + off, n);
        }
        it->second.second += n;
        res.value = static_cast<std::int64_t>(n);
        break;
      }
      case Sys::kWrite: {
        auto it = fds_.find(static_cast<int>(h.fd));
        if (it == fds_.end()) {
          res.value = -1;
          break;
        }
        std::vector<std::byte>& file = env_.file_for_write(it->second.first);
        const std::size_t body = f.data->size() - sizeof(ReqHeader);
        file.insert(file.end(), f.data->begin() + sizeof(ReqHeader),
                    f.data->end());
        it->second.second += body;
        res.value = static_cast<std::int64_t>(body);
        break;
      }
      case Sys::kKeyboard: {
        // A blocking read from the terminal: the stub — and therefore every
        // process it serves — waits (§3.3).
        co_await sim::delay(host_.simulator(), env_.keyboard_delay());
        res.value = 1;
        break;
      }
    }
    ++served_;
    hw::Frame reply;
    reply.kind = msg::kSyscallReply;
    reply.dst = f.src;
    reply.obj = h.client;
    reply.seq = f.seq;
    reply.aux = static_cast<std::uint64_t>(res.value);
    if (res.data != nullptr) {
      reply.payload_bytes = static_cast<std::uint32_t>(res.data->size());
      reply.data = res.data;
    } else {
      reply.payload_bytes = 8;
    }
    host_.kernel().send(std::move(reply));
  }
  serving_ = false;
}

SyscallClient::SyscallClient(Node& node, hw::StationId host,
                             std::uint64_t stub_id)
    : node_(node), host_(host), stub_id_(stub_id),
      client_key_(static_cast<std::uint64_t>(node.simulator().allocate_id())) {
  node_.add_sys_client(client_key_, this);
}

void SyscallClient::on_reply(hw::Frame f) {
  auto it = awaiting_.find(f.seq);
  if (it == awaiting_.end()) return;
  SyscallResult r;
  r.value = static_cast<std::int64_t>(f.aux);
  r.data = f.data;
  it->second.set_value(std::move(r));
  awaiting_.erase(it);
}

sim::Task<SyscallResult> SyscallClient::call(Subprocess& sp, Sys op,
                                             std::uint64_t aux,
                                             std::uint64_t arg,
                                             hw::Payload payload,
                                             std::uint32_t payload_bytes) {
  const CostModel& c = node_.costs();
  co_await sp.run_system(c.chan_write_fixed +
                         static_cast<sim::Duration>(payload_bytes) *
                             c.chan_write_per_byte);
  const std::uint64_t rid = next_req_++;
  sim::Promise<SyscallResult> p(node_.simulator());
  awaiting_.emplace(rid, p);
  ReqHeader h{static_cast<std::uint32_t>(op), static_cast<std::int64_t>(aux),
              arg, client_key_};
  hw::Frame f;
  f.kind = msg::kSyscallReq;
  f.dst = host_;
  f.obj = stub_id_;
  f.seq = rid;
  if (payload != nullptr) {
    f.data = encode_request(node_.frame_pool(), h, payload->data(),
                            payload->size());
  } else {
    f.data = encode_request(node_.frame_pool(), h, nullptr, 0);
  }
  f.payload_bytes = static_cast<std::uint32_t>(sizeof(ReqHeader)) + payload_bytes;
  node_.kernel().send(std::move(f));
  sp.set_state(SpState::kBlockedSyscall);
  SyscallResult r;
  {
    BlockedScope blocked(node_.census(), BlockReason::kOther);
    r = co_await p.future();
  }
  sp.set_state(SpState::kRunning);
  co_return r;
}

sim::Task<SyscallResult> SyscallClient::sys_open(Subprocess& sp,
                                                 const std::string& path) {
  std::vector<std::byte> body = node_.frame_pool().buffer();
  body.resize(path.size());
  std::memcpy(body.data(), path.data(), path.size());
  const auto n = static_cast<std::uint32_t>(body.size());
  return call(sp, Sys::kOpen, 0, 0, node_.frame_pool().make(std::move(body)),
              n);
}

sim::Task<SyscallResult> SyscallClient::sys_close(Subprocess& sp, int fd) {
  return call(sp, Sys::kClose, static_cast<std::uint64_t>(fd), 0, nullptr, 0);
}

sim::Task<SyscallResult> SyscallClient::sys_read(Subprocess& sp, int fd,
                                                 std::uint32_t nbytes) {
  return call(sp, Sys::kRead, static_cast<std::uint64_t>(fd), nbytes, nullptr,
              0);
}

sim::Task<SyscallResult> SyscallClient::sys_write(Subprocess& sp, int fd,
                                                  hw::Payload data) {
  const auto n = static_cast<std::uint32_t>(data->size());
  return call(sp, Sys::kWrite, static_cast<std::uint64_t>(fd), 0,
              std::move(data), n);
}

sim::Task<SyscallResult> SyscallClient::sys_keyboard(Subprocess& sp) {
  return call(sp, Sys::kKeyboard, 0, 0, nullptr, 0);
}

}  // namespace hpcvorx::vorx
