#include "apps/cemu_app.hpp"

#include <cassert>
#include <cstring>
#include <map>
#include <memory>

#include "sim/fnv.hpp"
#include "vorx/node.hpp"
#include "vorx/protocols/sliding_window.hpp"
#include "vorx/udco.hpp"

namespace hpcvorx::apps {

namespace {

// Per-gate evaluation cost on the 68020 (table lookup + a few moves; MOS
// timing models cost more, but the communication structure is what the
// experiment is about).
constexpr sim::Duration kEvalPerGate = sim::usec(20);
constexpr sim::Duration kLatchPerDff = sim::usec(5);
constexpr sim::Duration kPackFixed = sim::usec(8);

hw::Payload pack_bits(const std::vector<int>& ids,
                      const std::vector<bool>& latched) {
  std::vector<std::byte> bytes((ids.size() + 7) / 8);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if (latched[static_cast<std::size_t>(ids[i])]) {
      bytes[i / 8] |= static_cast<std::byte>(1u << (i % 8));
    }
  }
  return hw::make_payload(std::move(bytes));
}

void unpack_bits(const hw::Payload& data, const std::vector<int>& ids,
                 std::vector<bool>& latched) {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const bool v =
        ((*data)[i / 8] & static_cast<std::byte>(1u << (i % 8))) !=
        std::byte{0};
    latched[static_cast<std::size_t>(ids[i])] = v;
  }
}

// One direction of a boundary connection, over either transport.
struct BoundaryPipe {
  std::vector<int> ids;  // the DFFs whose values travel here
  vorx::Channel* chan = nullptr;
  std::unique_ptr<vorx::SlidingWindowSender> swp_tx;
  std::unique_ptr<vorx::SlidingWindowReceiver> swp_rx;
};

struct Shared {
  CemuConfig cfg;
  const Circuit* circuit = nullptr;
  std::vector<std::uint64_t> block_hash;
  std::uint64_t boundary_messages = 0;
  std::vector<sim::SimTime> done_at;
};

sim::Task<void> cemu_node(vorx::Subprocess& sp, std::shared_ptr<Shared> st,
                          int me, std::shared_ptr<sim::Gate> done) {
  const Circuit& ckt = *st->circuit;
  const CemuConfig& cfg = st->cfg;
  const int blocks = cfg.blocks;
  const int base = me * cfg.gates_per_block;

  // Boundary sets: who do I send to / receive from, and which DFFs.
  std::vector<BoundaryPipe> out_pipes(static_cast<std::size_t>(blocks));
  std::vector<BoundaryPipe> in_pipes(static_cast<std::size_t>(blocks));
  for (int other = 0; other < blocks; ++other) {
    if (other == me) continue;
    out_pipes[static_cast<std::size_t>(other)].ids = ckt.boundary(me, other);
    in_pipes[static_cast<std::size_t>(other)].ids = ckt.boundary(other, me);
  }

  // Open the transports in a global canonical order (no rendezvous
  // deadlock).  Each ordered pair (i -> j) with a nonempty boundary gets
  // its own connection named "cb<i>_<j>".
  for (int i = 0; i < blocks; ++i) {
    for (int j = 0; j < blocks; ++j) {
      if (i == j) continue;
      const bool sender = i == me;
      const bool receiver = j == me;
      if (!sender && !receiver) continue;
      BoundaryPipe& pipe = sender ? out_pipes[static_cast<std::size_t>(j)]
                                  : in_pipes[static_cast<std::size_t>(i)];
      if (pipe.ids.empty()) continue;
      const std::string name =
          "cb" + std::to_string(i) + "_" + std::to_string(j);
      if (cfg.transport == CemuTransport::kChannels) {
        pipe.chan = co_await sp.open(name);
      } else {
        vorx::Udco* u = co_await sp.open_udco(name);
        if (sender) {
          pipe.swp_tx = std::make_unique<vorx::SlidingWindowSender>(*u);
        } else {
          pipe.swp_rx =
              std::make_unique<vorx::SlidingWindowReceiver>(*u, cfg.window);
          co_await pipe.swp_rx->start(sp);
        }
      }
    }
  }

  std::vector<bool> values(static_cast<std::size_t>(ckt.num_gates()), false);
  std::vector<bool> latched(values.size(), false);
  std::uint64_t hash = sim::kFnvOffset;
  const std::vector<int> my_dffs = ckt.dffs_in_block(me);

  for (int t = 0; t < cfg.cycles; ++t) {
    // Latch my flip-flops.
    co_await sp.compute(kLatchPerDff * static_cast<int>(my_dffs.size()));
    for (int d : my_dffs) {
      latched[static_cast<std::size_t>(d)] =
          values[static_cast<std::size_t>(
              ckt.gates()[static_cast<std::size_t>(d)].a)];
    }
    // Ship my boundary values to every reader...
    for (int other = 0; other < blocks; ++other) {
      BoundaryPipe& pipe = out_pipes[static_cast<std::size_t>(other)];
      if (pipe.ids.empty()) continue;
      const auto bytes =
          static_cast<std::uint32_t>((pipe.ids.size() + 7) / 8);
      co_await sp.compute(kPackFixed);
      hw::Payload data = pack_bits(pipe.ids, latched);
      if (pipe.chan != nullptr) {
        co_await sp.write(*pipe.chan, bytes, std::move(data));
      } else {
        co_await pipe.swp_tx->send(sp, bytes, std::move(data));
      }
      ++st->boundary_messages;
    }
    // ...and take in everyone else's.
    for (int other = 0; other < blocks; ++other) {
      BoundaryPipe& pipe = in_pipes[static_cast<std::size_t>(other)];
      if (pipe.ids.empty()) continue;
      co_await sp.compute(kPackFixed);
      if (pipe.chan != nullptr) {
        vorx::ChannelMsg m = co_await sp.read(*pipe.chan);
        unpack_bits(m.data, pipe.ids, latched);
      } else {
        hw::Frame f = co_await pipe.swp_rx->recv(sp);
        unpack_bits(f.data, pipe.ids, latched);
      }
    }
    // Evaluate my combinational plane and fold the block trace.
    co_await sp.compute(kEvalPerGate * cfg.gates_per_block);
    for (int i = 0; i < cfg.gates_per_block; ++i) {
      const int g = base + i;
      bool v;
      if (ckt.is_dff(g)) {
        v = latched[static_cast<std::size_t>(g)];
      } else {
        v = ckt.eval_gate(g, values, latched, t);
        values[static_cast<std::size_t>(g)] = v;
      }
      hash = fold_bit(hash, v);
    }
  }

  st->block_hash[static_cast<std::size_t>(me)] = hash;
  st->done_at[static_cast<std::size_t>(me)] = sp.node().simulator().now();
  done->arrive();
}

}  // namespace

CemuResult run_cemu(sim::Simulator& sim, vorx::System& sys,
                    const CemuConfig& cfg) {
  assert(sys.num_nodes() >= cfg.blocks);
  const Circuit circuit = Circuit::random(cfg.blocks, cfg.gates_per_block,
                                          cfg.dffs_per_block,
                                          cfg.primary_inputs, cfg.seed);
  auto st = std::make_shared<Shared>();
  st->cfg = cfg;
  st->circuit = &circuit;
  st->block_hash.assign(static_cast<std::size_t>(cfg.blocks), 0);
  st->done_at.assign(static_cast<std::size_t>(cfg.blocks), 0);

  auto done = std::make_shared<sim::Gate>(sim, static_cast<std::size_t>(cfg.blocks));
  const sim::SimTime started = sim.now();
  for (int b = 0; b < cfg.blocks; ++b) {
    sys.node(b).spawn_process(
        "cemu." + std::to_string(b),
        [st, b, done](vorx::Subprocess& sp) -> sim::Task<void> {  // vorx-lint: allow(R2) closure is copied into the Process's AppFn, which outlives the Task
          co_await cemu_node(sp, st, b, done);
        });
  }
  sim.run();

  CemuResult res;
  res.elapsed = sim.now() - started;
  res.boundary_messages = st->boundary_messages;
  std::uint64_t h = sim::kFnvOffset;
  for (std::uint64_t bh : st->block_hash) h = sim::fnv1a_step(h, bh);
  res.trace = h;
  res.matches_serial = h == circuit.simulate_serial(cfg.cycles);
  res.cycles_per_sec = cfg.cycles / sim::to_sec(res.elapsed);
  return res;
}

}  // namespace hpcvorx::apps
