// Host stubs and the UNIX execution environment (§3.3).
//
// "Each process running on a processing node has a stub process running on
// the host. ... Each time a system call (such as a write to a file) is
// executed on the processing node, it sends a message to the stub.  The
// stub then executes the system call and passes the results back to the
// node."
//
// A Stub is a host-side process that serves syscall requests *serially* —
// which is exactly why sharing one stub among many node processes goes
// wrong: "if one of the processes issues a UNIX system call that blocks,
// such as a read from the keyboard, then the stub does not process system
// calls from any of the other processes served by that stub until the
// original system call completes."  The SunOS per-process descriptor limit
// (32) is likewise enforced per *stub*, so processes sharing a stub share
// its descriptor budget.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/awaitables.hpp"
#include "sim/promise.hpp"
#include "sim/task.hpp"
#include "vorx/kernel.hpp"

namespace hpcvorx::vorx {

class Node;
class Subprocess;

/// SunOS kernel limit: open descriptors per (stub) process.
inline constexpr int kMaxOpenFiles = 32;

/// The host's UNIX-like file system and devices, shared by all stubs on
/// that host.
class HostEnv {
 public:
  explicit HostEnv(sim::Simulator& sim) : sim_(sim) {}

  void create_file(const std::string& path, std::vector<std::byte> contents) {
    files_[path] = std::move(contents);
  }
  [[nodiscard]] bool file_exists(const std::string& path) const {
    return files_.count(path) != 0;
  }
  [[nodiscard]] const std::vector<std::byte>* file(const std::string& path) const {
    auto it = files_.find(path);
    return it == files_.end() ? nullptr : &it->second;
  }
  std::vector<std::byte>& file_for_write(const std::string& path) {
    return files_[path];
  }

  /// How long a (blocking) keyboard read takes before input "arrives".
  void set_keyboard_delay(sim::Duration d) { keyboard_delay_ = d; }
  [[nodiscard]] sim::Duration keyboard_delay() const { return keyboard_delay_; }

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }

 private:
  sim::Simulator& sim_;
  std::map<std::string, std::vector<std::byte>> files_;
  sim::Duration keyboard_delay_ = sim::msec(50);
};

/// Syscall opcodes forwarded from node processes.
enum class Sys : std::uint32_t {
  kOpen = 1,   // payload: path; reply: fd or -1
  kClose,      // aux: fd
  kRead,       // aux: fd, seq: nbytes; reply: bytes read (+payload)
  kWrite,      // aux: fd, payload: data; reply: bytes written
  kKeyboard,   // blocking read from the controlling terminal
};

struct SyscallResult {
  std::int64_t value = -1;
  hw::Payload data;
};

/// A host-side stub process.  One per node process (faithful environment)
/// or one shared by all processes of an application (fast start-up, §3.3
/// trade-offs).
class Stub {
 public:
  Stub(const Stub&) = delete;
  Stub& operator=(const Stub&) = delete;
  ~Stub();

  [[nodiscard]] std::uint64_t id() const { return id_; }
  [[nodiscard]] int open_files() const { return static_cast<int>(fds_.size()); }
  [[nodiscard]] std::uint64_t calls_served() const { return served_; }
  [[nodiscard]] std::size_t queue_depth() const {
    return reqq_.size() - reqq_head_;
  }
  /// True while the stub is serving a request (§ 3.3: a blocking syscall
  /// keeps it true for the full wait).
  [[nodiscard]] bool busy() const { return serving_; }

 private:
  friend class SyscallClient;
  friend class Node;
  // Only Node::make_stub creates stubs: the node owns each one.
  Stub(Node& host, std::uint64_t id, HostEnv& env);
  void on_request(hw::Frame f);
  sim::Proc serve();  // strictly serial: the §3.3 blocking hazard

  Node& host_;
  std::uint64_t id_;
  HostEnv& env_;
  // Request FIFO: reqq_[reqq_head_..] waiting.  A vector allocates nothing
  // until the first request (most stubs never get one), and serve() rewinds
  // it whenever it drains.
  std::vector<hw::Frame> reqq_;
  std::size_t reqq_head_ = 0;
  bool serving_ = false;
  std::map<int, std::pair<std::string, std::size_t>> fds_;  // fd -> (path, offset)
  int next_fd_ = 3;
  std::uint64_t served_ = 0;
  std::int64_t owner_;  // CPU owner identity of the stub process
};

/// Node-side syscall issuing: bound to one stub on one host.
class SyscallClient {
 public:
  SyscallClient(Node& node, hw::StationId host, std::uint64_t stub_id);

  [[nodiscard]] sim::Task<SyscallResult> sys_open(Subprocess& sp,
                                                  const std::string& path);
  [[nodiscard]] sim::Task<SyscallResult> sys_close(Subprocess& sp, int fd);
  [[nodiscard]] sim::Task<SyscallResult> sys_read(Subprocess& sp, int fd,
                                                  std::uint32_t nbytes);
  [[nodiscard]] sim::Task<SyscallResult> sys_write(Subprocess& sp, int fd,
                                                   hw::Payload data);
  [[nodiscard]] sim::Task<SyscallResult> sys_keyboard(Subprocess& sp);

 private:
  friend class Node;
  [[nodiscard]] sim::Task<SyscallResult> call(Subprocess& sp, Sys op,
                                              std::uint64_t aux,
                                              std::uint64_t arg,
                                              hw::Payload payload,
                                              std::uint32_t payload_bytes);
  void on_reply(hw::Frame f);

  Node& node_;
  hw::StationId host_;
  std::uint64_t stub_id_;
  std::uint64_t next_req_ = 1;
  std::uint64_t client_key_;
  std::unordered_map<std::uint64_t, sim::Promise<SyscallResult>> awaiting_;
};

}  // namespace hpcvorx::vorx
