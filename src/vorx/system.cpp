#include "vorx/system.hpp"

#include "sim/proc_registry.hpp"

namespace hpcvorx::vorx {

namespace {
// FNV-1a: a stable, platform-independent name hash, so experiment results
// do not depend on the standard library's std::hash.
std::uint64_t name_hash(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : s) {
    h ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    h *= 0x100000001b3ULL;
  }
  return h;
}
}  // namespace

System::System(sim::Simulator& sim, SystemConfig cfg)
    : System(cfg, {&sim}, nullptr,
             hw::Fabric::make(sim, cfg.nodes + cfg.hosts,
                              cfg.stations_per_cluster, cfg.fabric)) {}

System::System(sim::ShardRuntime& rt, SystemConfig cfg)
    : System(cfg, rt.shards(), &rt,
             hw::Fabric::make_sharded(rt, cfg.nodes + cfg.hosts,
                                      cfg.stations_per_cluster, cfg.fabric)) {}

System::System(SystemConfig cfg, std::vector<sim::Simulator*> sims,
               sim::ShardRuntime* rt, std::unique_ptr<hw::Fabric> fabric)
    : sims_(std::move(sims)),
      runtime_(rt),
      cfg_(cfg),
      fabric_(std::move(fabric)) {
  if (cfg_.record_counters) {
    for (sim::Simulator* s : sims_) s->counters().enable(true);
  }
  const int stations = cfg_.nodes + cfg_.hosts;
  Node::Options opts;
  opts.side_buffers = cfg_.channel_side_buffers;
  opts.record_intervals = cfg_.record_intervals;
  OmService::Locator locator = [this](const std::string& name) {
    return manager_for(name);
  };
  for (int s = 0; s < stations; ++s) {
    const bool is_host = s >= cfg_.nodes;
    const std::string name =
        is_host ? "ws" + std::to_string(s - cfg_.nodes) : "n" + std::to_string(s);
    // Each node lives on its cluster's shard simulator; bind it as the
    // thread's shard context so any Proc frame created while the node
    // wires itself up registers with the right registry.
    sim::Simulator& ssim = fabric_->station_sim(s);
    sim::Simulator::ScopedBind bind(ssim);
    stations_.push_back(std::make_unique<Node>(
        ssim, fabric_->endpoint(s), cfg_.costs, name, locator, opts));
  }
}

System::~System() {
  // Every station's processes registered with that station's simulator (or
  // the thread fallback for frames created with nothing bound); drain each
  // distinct registry while the nodes are still alive.
  for (sim::Simulator* s : sims_) s->proc_registry().destroy_all();
  sim::ProcRegistry::thread_fallback().destroy_all();
}

void System::run_until(sim::SimTime deadline) {
  if (runtime_ != nullptr) {
    runtime_->run_until(deadline);
  } else {
    sims_.front()->run_until(deadline);
  }
}

hw::StationId System::manager_for(const std::string& name) const {
  if (cfg_.centralized_object_manager) {
    // Meglos: "All resource management in Meglos was centralized on a
    // single host" (§3.2).
    return cfg_.hosts > 0 ? host_station(0) : 0;
  }
  // VORX: distributed hashing across the processing-node object managers.
  return static_cast<hw::StationId>(name_hash(name) %
                                    static_cast<std::uint64_t>(cfg_.nodes));
}

std::vector<Mcast*> System::create_multicast_group(
    std::uint64_t gid, const std::vector<int>& node_indices, int root_index,
    McastMode mode) {
  std::vector<hw::StationId> members;
  members.reserve(node_indices.size());
  for (int i : node_indices) members.push_back(node_station(i));
  const hw::StationId root = node_station(node_indices[static_cast<std::size_t>(root_index)]);
  if (mode == McastMode::kHardware) {
    fabric_->add_multicast_group(gid, root, members);
  }
  std::vector<Mcast*> handles;
  handles.reserve(node_indices.size());
  for (int i : node_indices) {
    handles.push_back(node(i).mcast().create_group(gid, members, root, mode));
  }
  return handles;
}

void System::finalize_accounting() {
  for (auto& n : stations_) n->cpu().finalize_accounting();
}

}  // namespace hpcvorx::vorx
