// Processes and subprocesses — the VORX execution model.
//
// §5 of the paper: "Both Meglos and VORX allow a process to be subdivided
// into subprocesses.  Like threads in Mach, subprocesses are parts of a
// process that execute asynchronously with each other.  Each subprocess is
// an independently scheduled thread of execution that may block for
// communications or other events without affecting the execution of the
// other subprocesses. ... distinct execution priorities can be specified
// for each subprocess and the scheduler is preemptive."
//
// A subprocess's work runs on the node's simulated CPU with the paper's
// 80 µs full-register context switch charged whenever the processor
// switches between subprocess contexts.  The lighter §5 structuring
// alternatives (coroutines, interrupt-level programming) are modelled by
// spawning contexts with smaller switch costs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "sim/promise.hpp"
#include "sim/task.hpp"
#include "vorx/channel.hpp"

namespace hpcvorx::vorx {

class Node;
class Process;
class SyscallClient;
struct SyscallResult;
class Udco;
class VSemaphore;

enum class SpState {
  kRunning,
  kBlockedInput,
  kBlockedOutput,
  kBlockedSem,
  kBlockedOpen,
  kBlockedSyscall,
  kSleeping,
  kStopped,  // parked at a vdb breakpoint
  kDone,
};

[[nodiscard]] constexpr std::string_view sp_state_name(SpState s) {
  switch (s) {
    case SpState::kRunning: return "running";
    case SpState::kBlockedInput: return "blocked-input";
    case SpState::kBlockedOutput: return "blocked-output";
    case SpState::kBlockedSem: return "blocked-sem";
    case SpState::kBlockedOpen: return "blocked-open";
    case SpState::kBlockedSyscall: return "blocked-syscall";
    case SpState::kSleeping: return "sleeping";
    case SpState::kStopped: return "stopped";
    case SpState::kDone: return "done";
  }
  return "?";
}

class Subprocess {
 public:
  Subprocess(Process& proc, int index, int priority, std::string name,
             sim::Duration switch_cost);

  // ---- computation ----
  /// Executes `d` of application code on this node's CPU (user time, this
  /// subprocess's priority, context switches charged on owner change).
  [[nodiscard]] sim::Task<void> compute(sim::Duration d);

  /// Executes `d` of kernel code in this process's context (system time).
  [[nodiscard]] sim::Task<void> run_system(sim::Duration d);

  /// Suspends for `d` of virtual time (device waits, pacing).
  [[nodiscard]] sim::Task<void> sleep(sim::Duration d);

  // ---- channels (§4) ----
  [[nodiscard]] sim::Task<Channel*> open(const std::string& name);
  [[nodiscard]] sim::Task<ServerPort*> open_server(const std::string& name);
  [[nodiscard]] sim::Task<Channel*> accept(ServerPort& port);
  [[nodiscard]] sim::Task<void> write(Channel& ch, std::uint32_t bytes,
                                      hw::Payload data = nullptr);
  [[nodiscard]] sim::Task<ChannelMsg> read(Channel& ch);

  /// Writes a buffer of any size as a sequence of frame-limited channel
  /// messages (the convenience the HPC's 1060-byte frame limit demands).
  [[nodiscard]] sim::Task<void> write_all(Channel& ch, hw::Payload data);

  /// Reads `total` bytes that arrive as any number of messages and
  /// reassembles them.
  [[nodiscard]] sim::Task<std::vector<std::byte>> read_all(Channel& ch,
                                                           std::size_t total);

  /// Multiplexed read (§4): blocks until any of `chans` has data.
  [[nodiscard]] sim::Task<std::pair<Channel*, ChannelMsg>> read_any(
      std::vector<Channel*> chans);

  // ---- user-defined communications objects (§4.1) ----
  [[nodiscard]] sim::Task<Udco*> open_udco(const std::string& name);

  // ---- semaphores (§5) ----
  [[nodiscard]] sim::Task<void> p(VSemaphore& s);
  [[nodiscard]] sim::Task<void> v(VSemaphore& s);

  // ---- debugging (§6: vdb breakpoints and variable inspection) ----
  /// Parks this subprocess at a named breakpoint when a debugger has armed
  /// it (vdb::set_breakpoint); otherwise costs nothing and continues.
  [[nodiscard]] sim::Task<void> breakpoint(const std::string& label);

  /// Publishes a named value that vdb can examine ("switch between
  /// subprocesses to examine their local variables").
  void publish_local(const std::string& name, std::int64_t value) {
    locals_[name] = value;
  }
  [[nodiscard]] const std::map<std::string, std::int64_t>& locals() const {
    return locals_;
  }
  [[nodiscard]] const std::string& stopped_at() const { return stopped_at_; }

  /// Debugger side: resumes a subprocess parked at a breakpoint.
  void resume_from_breakpoint();

  // ---- forwarded UNIX system calls (§3.3; requires a stub binding) ----
  [[nodiscard]] sim::Task<SyscallResult> sys_open(const std::string& path);
  [[nodiscard]] sim::Task<SyscallResult> sys_close(int fd);
  [[nodiscard]] sim::Task<SyscallResult> sys_read(int fd, std::uint32_t n);
  [[nodiscard]] sim::Task<SyscallResult> sys_write(int fd, hw::Payload data);
  [[nodiscard]] sim::Task<SyscallResult> sys_keyboard();

  // ---- identity / state ----
  [[nodiscard]] Process& process() { return proc_; }
  [[nodiscard]] Node& node();
  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] int priority() const { return priority_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] SpState state() const { return state_; }
  void set_state(SpState s) { state_ = s; }
  [[nodiscard]] sim::Duration switch_cost() const { return switch_cost_; }

 private:
  friend class Process;
  Process& proc_;
  int index_;
  int priority_;
  std::string name_;
  sim::Duration switch_cost_;
  std::int64_t owner_id_;
  SpState state_ = SpState::kRunning;
  std::map<std::string, std::int64_t> locals_;
  std::string stopped_at_;
  std::unique_ptr<sim::Event> bp_resume_;
};

/// Application entry point: one coroutine per subprocess.
using AppFn = std::function<sim::Task<void>(Subprocess&)>;

class Process {
 public:
  Process(Node& node, int pid, std::string name);
  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  /// Starts a subprocess running `fn`.  `switch_cost < 0` means the
  /// default (the cost model's 80 µs full register save).
  Subprocess& spawn(AppFn fn, int priority = sim::prio::kUserDefault,
                    std::string name = "", sim::Duration switch_cost = -1);

  /// Fulfilled when every subprocess has finished.
  [[nodiscard]] sim::Future<sim::Unit> done() const { return done_.future(); }
  [[nodiscard]] bool finished() const { return live_ == 0 && spawned_ > 0; }
  [[nodiscard]] sim::SimTime finished_at() const { return finished_at_; }

  [[nodiscard]] Node& node() { return node_; }
  [[nodiscard]] int pid() const { return pid_; }

  /// Binds every subprocess's forwarded system calls to a host stub.
  void bind_syscalls(std::unique_ptr<SyscallClient> client);
  [[nodiscard]] SyscallClient* syscalls() { return syscalls_.get(); }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const std::vector<std::unique_ptr<Subprocess>>& subprocesses()
      const {
    return subprocesses_;
  }

 private:
  sim::Proc run_subprocess(Subprocess* sp, AppFn fn);

  Node& node_;
  int pid_;
  std::string name_;
  std::vector<std::unique_ptr<Subprocess>> subprocesses_;
  int live_ = 0;
  int spawned_ = 0;
  sim::Promise<sim::Unit> done_;
  sim::SimTime finished_at_ = -1;
  std::unique_ptr<SyscallClient> syscalls_;
};

/// A VORX semaphore: the §5 inter-subprocess synchronization primitive.
class VSemaphore {
 public:
  VSemaphore(Node& node, std::int64_t initial);

  [[nodiscard]] std::int64_t value() const { return sem_.available(); }
  [[nodiscard]] std::size_t waiting() const { return sem_.waiting(); }

 private:
  friend class Subprocess;
  Node& node_;
  sim::Semaphore sem_;
};

}  // namespace hpcvorx::vorx
