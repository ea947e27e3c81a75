// A VORX node: one station (processing node or host workstation) with its
// CPU, kernel, channel machinery, object manager, and processes.
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "hw/fabric.hpp"
#include "sim/cpu.hpp"
#include "vorx/census.hpp"
#include "vorx/channel.hpp"
#include "vorx/kernel.hpp"
#include "vorx/multicast.hpp"
#include "vorx/object_manager.hpp"
#include "vorx/process.hpp"
#include "vorx/loader.hpp"
#include "vorx/stub.hpp"
#include "vorx/udco.hpp"

namespace hpcvorx::vorx {

class Node {
 public:
  struct Options {
    std::size_t side_buffers = 16;
    bool record_intervals = false;
  };

  Node(sim::Simulator& sim, hw::Endpoint& ep, const CostModel& costs,
       std::string name, OmService::Locator manager_locator, Options opts);
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;
  ~Node();

  [[nodiscard]] sim::Simulator& simulator() { return sim_; }
  [[nodiscard]] sim::Cpu& cpu() { return cpu_; }
  [[nodiscard]] Kernel& kernel() { return kernel_; }
  /// Shorthand for kernel().frame_pool().
  [[nodiscard]] hw::FramePool& frame_pool() { return kernel_.frame_pool(); }
  [[nodiscard]] ChannelService& channels() { return chans_; }
  [[nodiscard]] OmService& om() { return om_; }
  [[nodiscard]] McastService& mcast() { return mcast_; }
  [[nodiscard]] LoaderService& loader() { return loader_; }

  /// Host-side UNIX environment (files, devices) — meaningful on
  /// workstation stations; exists on every node for uniformity.
  [[nodiscard]] HostEnv& host_env() { return host_env_; }

  /// Creates a stub process on this (host) node.  The node owns it, by
  /// id, until free_stub(id) or the node's own destruction.
  Stub& make_stub();
  /// Destroys stub `id`: its node process is gone, so the stub exits too
  /// (§3.3).  The stub must be idle — neither serving a request nor
  /// holding one queued — or an assert fires.
  void free_stub(std::uint64_t id);
  /// Stubs alive on this node.
  [[nodiscard]] std::size_t stub_count() const { return stubs_.size(); }

  // Registry for syscall replies (used by SyscallClient).
  void add_sys_client(std::uint64_t key, SyscallClient* c);
  [[nodiscard]] NodeCensus& census() { return census_; }
  [[nodiscard]] const CostModel& costs() const { return costs_; }
  [[nodiscard]] hw::StationId station() const { return kernel_.station(); }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// Starts a process whose first subprocess runs `fn`.
  Process& spawn_process(std::string name, AppFn fn,
                         int priority = sim::prio::kUserDefault,
                         sim::Duration switch_cost = -1);

  /// All processes ever started on this node (vdb/cdb iteration).
  [[nodiscard]] const std::vector<std::unique_ptr<Process>>& processes() const {
    return processes_;
  }

  /// Creates a user-defined object after its rendezvous completed;
  /// replays any frames that raced ahead of the open reply.
  Udco* make_udco(std::uint64_t id, std::uint64_t peer_id,
                  const std::string& name, hw::StationId peer);

  // Debugger support (§6): labels armed by vdb stop subprocesses at the
  // matching Subprocess::breakpoint() calls.
  void arm_breakpoint(const std::string& label) { breakpoints_.insert(label); }
  void disarm_breakpoint(const std::string& label) {
    breakpoints_.erase(label);
  }
  [[nodiscard]] bool breakpoint_armed(const std::string& label) const {
    return breakpoints_.count(label) != 0;
  }

 private:
  friend class Stub;
  /// Unregisters stub `id`; only ~Stub calls it, once per stub.
  void remove_stub(std::uint64_t id);

  sim::Simulator& sim_;
  std::string name_;
  const CostModel& costs_;
  sim::Cpu cpu_;
  NodeCensus census_;
  Kernel kernel_;
  ChannelService chans_;
  OmService om_;
  McastService mcast_;
  LoaderService loader_;
  HostEnv host_env_;
  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<std::unique_ptr<Udco>> udcos_;
  std::unordered_map<std::uint64_t, std::unique_ptr<Stub>> stubs_;
  std::unordered_map<std::uint64_t, SyscallClient*> sys_clients_;
  std::uint64_t next_stub_id_ = 1;
  std::unordered_map<std::uint64_t, std::vector<hw::Frame>> udco_orphans_;
  std::set<std::string> breakpoints_;
  int next_pid_ = 1;
};

}  // namespace hpcvorx::vorx
