#include "vorx/node.hpp"

#include <cassert>

namespace hpcvorx::vorx {

Node::Node(sim::Simulator& sim, hw::Endpoint& ep, const CostModel& costs,
           std::string name, OmService::Locator manager_locator, Options opts)
    : sim_(sim),
      name_(std::move(name)),
      costs_(costs),
      cpu_(sim, name_),
      census_(cpu_),
      kernel_(sim, ep, cpu_, costs_),
      chans_(kernel_, census_, opts.side_buffers),
      om_(kernel_, chans_, std::move(manager_locator)),
      mcast_(kernel_, census_),
      loader_(*this),
      host_env_(sim) {
  cpu_.ledger().enable_recording(opts.record_intervals);
  // Stash user-defined-object frames that beat the open reply; make_udco
  // replays them.
  kernel_.register_handler(msg::kUdco, [this](const hw::Frame& f) {
    udco_orphans_[f.obj].push_back(f);
  });
  kernel_.register_handler(msg::kSyscallReq, [this](const hw::Frame& f) {
    auto it = stubs_.find(f.obj);
    if (it != stubs_.end()) it->second->on_request(f);
  });
  kernel_.register_handler(msg::kSyscallReply, [this](const hw::Frame& f) {
    auto it = sys_clients_.find(f.obj);
    if (it != sys_clients_.end()) it->second->on_reply(f);
  });
}

Node::~Node() {
  // Each ~Stub unregisters itself, so the stubs die from a detached table
  // and their erases find this one already empty.
  auto doomed = std::move(stubs_);
  stubs_.clear();
}

Stub& Node::make_stub() {
  const std::uint64_t id =
      (static_cast<std::uint64_t>(station()) + 1) * 100'000ULL + next_stub_id_++;
  auto [it, fresh] =
      stubs_.emplace(id, std::unique_ptr<Stub>(new Stub(*this, id, host_env_)));
  assert(fresh);
  return *it->second;
}

void Node::free_stub(std::uint64_t id) {
  auto it = stubs_.find(id);
  assert(it != stubs_.end() && "free_stub: no such stub");
  assert(!it->second->busy() && it->second->queue_depth() == 0 &&
         "free_stub: the stub is serving or has requests queued");
  // ~Stub erases the entry; destroy the stub outside the map's own erase.
  std::unique_ptr<Stub> doomed = std::move(it->second);
}

void Node::remove_stub(std::uint64_t id) { stubs_.erase(id); }

void Node::add_sys_client(std::uint64_t key, SyscallClient* c) {
  sys_clients_[key] = c;
}

Process& Node::spawn_process(std::string name, AppFn fn, int priority,
                             sim::Duration switch_cost) {
  // Main-thread setup spawns must register their coroutine frames with
  // this node's shard simulator, not whatever the thread last bound.
  sim::Simulator::ScopedBind bind(sim_);
  processes_.push_back(
      std::make_unique<Process>(*this, next_pid_++, std::move(name)));
  Process* p = processes_.back().get();
  p->spawn(std::move(fn), priority, p->name() + ".main", switch_cost);
  return *p;
}

Udco* Node::make_udco(std::uint64_t id, std::uint64_t peer_id,
                      const std::string& name, hw::StationId peer) {
  udcos_.push_back(
      std::make_unique<Udco>(kernel_, census_, id, peer_id, name, peer));
  Udco* u = udcos_.back().get();
  auto it = udco_orphans_.find(id);
  if (it != udco_orphans_.end()) {
    for (hw::Frame& f : it->second) u->deliver(std::move(f));
    udco_orphans_.erase(it);
  }
  return u;
}

}  // namespace hpcvorx::vorx
