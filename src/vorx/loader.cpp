#include "vorx/loader.hpp"

#include <cassert>

#include "vorx/node.hpp"
#include "vorx/stub.hpp"
#include "vorx/system.hpp"

namespace hpcvorx::vorx {

LoaderService::LoaderService(Node& node) : node_(node) {
  node_.kernel().register_handler(
      msg::kLoadSegment, [this](const hw::Frame& f) { on_segment(f); });
  node_.kernel().register_handler(
      msg::kLoadDone, [this](const hw::Frame& f) { on_done(f); });
}

void LoaderService::expect(ReceivePlan plan) {
  const std::uint64_t s = plan.session;
  pending_.emplace(s, Pending{std::move(plan), 0});
}

sim::Gate& LoaderService::expect_done(std::uint64_t session,
                                      std::size_t count) {
  auto gate = std::make_unique<sim::Gate>(node_.simulator(), count);
  sim::Gate& ref = *gate;
  done_gates_[session] = std::move(gate);
  return ref;
}

void LoaderService::on_segment(hw::Frame f) {
  auto it = pending_.find(f.obj);
  if (it == pending_.end()) return;
  relay_and_account(std::move(f));
}

sim::Proc LoaderService::relay_and_account(hw::Frame f) {
  // Look up afresh around every suspension: the map may rehash meanwhile.
  std::vector<hw::StationId> children;
  {
    auto it = pending_.find(f.obj);
    if (it == pending_.end()) co_return;
    children = it->second.plan.children;
  }
  // "That processor copies the text to two other processors as the text is
  // being received": the copy-through is part of the receive path, so it
  // runs at interrupt level — otherwise the incoming stream would starve
  // it and the tree would degrade to store-and-forward per node.
  for (hw::StationId child : children) {
    co_await node_.cpu().run(
        sim::prio::kInterrupt,
        static_cast<sim::Duration>(f.payload_bytes) *
            node_.costs().loader_relay_per_byte,
        sim::Category::kSystem, sim::kBorrowedContext, 0);
    hw::Frame fwd = f;
    fwd.dst = child;
    fwd.src = -1;
    node_.kernel().send(std::move(fwd));
    bytes_relayed_ += f.payload_bytes;
  }
  auto it = pending_.find(f.obj);
  if (it == pending_.end()) co_return;
  it->second.received += f.payload_bytes;
  bytes_rx_ += f.payload_bytes;
  if (it->second.received >= it->second.plan.image_bytes) {
    Pending done = std::move(it->second);
    pending_.erase(it);
    start_process(std::move(done));
  }
}

sim::Proc LoaderService::start_process(Pending p) {
  // Image complete: initialize the process on this node.
  co_await node_.cpu().run(sim::prio::kKernel, node_.costs().process_init,
                           sim::Category::kSystem, sim::kBorrowedContext, 0);
  Process& proc = node_.spawn_process(p.plan.proc_name, std::move(p.plan.app));
  if (p.plan.stub_id != 0) {
    proc.bind_syscalls(std::make_unique<SyscallClient>(
        node_, p.plan.stub_host, p.plan.stub_id));
  }
  hw::Frame done;
  done.kind = msg::kLoadDone;
  done.dst = p.plan.ack_to;
  done.obj = p.plan.session;
  node_.kernel().send(std::move(done));
}

void LoaderService::on_done(hw::Frame f) {
  auto it = done_gates_.find(f.obj);
  if (it == done_gates_.end()) return;
  it->second->arrive();
}

sim::Task<LaunchStats> launch_application(Subprocess& host_sp, System& sys,
                                          std::vector<int> node_indices,
                                          std::uint32_t image_bytes, AppFn fn,
                                          DownloadScheme scheme,
                                          std::string app_name) {
  Node& host = host_sp.node();
  const CostModel& c = host.costs();
  const auto session =
      static_cast<std::uint64_t>(host.simulator().allocate_id());
  constexpr std::uint32_t kChunk = 1024;

  LaunchStats st;
  st.started = host.simulator().now();
  st.processes = static_cast<int>(node_indices.size());
  sim::Gate& done = host.loader().expect_done(session, node_indices.size());

  auto stream_image_to = [&](hw::StationId dst) -> sim::Task<void> {  // vorx-lint: allow(R2) stack-local helper; the closure outlives every co_await of its Task
    for (std::uint32_t off = 0; off < image_bytes; off += kChunk) {
      const std::uint32_t n = std::min(kChunk, image_bytes - off);
      // The stub copies each segment out of the object file and into the
      // interface: host CPU per byte.
      co_await host_sp.compute(static_cast<sim::Duration>(n) *
                               c.chan_write_per_byte);
      hw::Frame f;
      f.kind = msg::kLoadSegment;
      f.dst = dst;
      f.obj = session;
      f.seq = off / kChunk;
      f.payload_bytes = n;
      host.kernel().send(std::move(f));
    }
  };

  if (scheme == DownloadScheme::kPerProcessStubs) {
    for (std::size_t i = 0; i < node_indices.size(); ++i) {
      // Fork + exec one stub per process, then its independent download.
      co_await host_sp.compute(c.stub_create);
      Stub& stub = host.make_stub();
      ++st.stubs_created;
      co_await host_sp.compute(c.process_register);
      LoaderService::ReceivePlan plan;
      plan.session = session;
      plan.image_bytes = image_bytes;
      plan.ack_to = host.station();
      plan.app = fn;
      plan.proc_name = app_name + "." + std::to_string(i);
      plan.stub_host = host.station();
      plan.stub_id = stub.id();
      sys.node(node_indices[i]).loader().expect(std::move(plan));
      co_await stream_image_to(sys.node_station(node_indices[i]));
    }
  } else {
    // One stub for the whole application...
    co_await host_sp.compute(c.stub_create);
    Stub& stub = host.make_stub();
    st.stubs_created = 1;
    for (std::size_t i = 0; i < node_indices.size(); ++i) {
      co_await host_sp.compute(c.process_register);
      LoaderService::ReceivePlan plan;
      plan.session = session;
      plan.image_bytes = image_bytes;
      plan.ack_to = host.station();
      plan.app = fn;
      plan.proc_name = app_name + "." + std::to_string(i);
      plan.stub_host = host.station();
      plan.stub_id = stub.id();
      // ...and a fan-out-2 relay tree over the allocated nodes.
      for (std::size_t child : {2 * i + 1, 2 * i + 2}) {
        if (child < node_indices.size()) {
          plan.children.push_back(sys.node_station(node_indices[child]));
        }
      }
      sys.node(node_indices[i]).loader().expect(std::move(plan));
    }
    // The stub downloads only the first processing node.
    co_await stream_image_to(sys.node_station(node_indices[0]));
  }

  co_await done.wait();
  st.finished = host.simulator().now();
  co_return st;
}

}  // namespace hpcvorx::vorx
