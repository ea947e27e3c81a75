// Differential tests for the sharded engine (--shards N) against the
// sequential one, plus the N-shard merge-order golden.
//
// What sharding is and is not allowed to change (DESIGN.md §12):
//   * a 1-shard ShardRuntime is the sequential engine byte for byte — the
//     full merged delivery order must be identical;
//   * an N-shard run may legally reorder *independent* deliveries from
//     different sources (flow-control credits race differently across the
//     window boundary), but per-(receiver, source) streams are FIFO
//     channels and must arrive in exactly the sequential order, and every
//     receiver must get exactly the same multiset of messages;
//   * a given (topology, workload, N) is deterministic: repeated N-shard
//     runs produce one merged order, which pins its own golden.
//
// Regenerating the shard golden (only after an intentional change to event
// timing or the merge rule):
//   HPCVORX_WRITE_GOLDENS=1 ./build/tests/integration_tests
//       --gtest_filter='ShardDifferential.*OrderGolden'
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "hw/fabric.hpp"
#include "hw/traffic.hpp"
#include "sim/random.hpp"
#include "sim/shard_runtime.hpp"
#include "sim/simulator.hpp"
#include "vorx/node.hpp"
#include "vorx/system.hpp"

namespace hpcvorx {
namespace {

using vorx::Channel;
using vorx::ChannelMsg;
using vorx::Subprocess;

std::string golden_path(const std::string& name) {
  return std::string(GOLDEN_DIR) + "/" + name;
}

bool writing_goldens() {
  return std::getenv("HPCVORX_WRITE_GOLDENS") != nullptr;
}

void check_against_golden(const std::string& name, const std::string& got) {
  const std::string path = golden_path(name);
  if (writing_goldens()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write golden " << path;
    out << got;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_TRUE(got == ss.str()) << name << " bytes changed";
}

// Message identity rides in the first 8 payload bytes: sender * 1000 + seq.
hw::Payload stamp(std::uint64_t id, std::uint32_t bytes) {
  std::vector<std::byte> d(std::max<std::uint32_t>(bytes, 8));
  std::memcpy(d.data(), &id, sizeof id);
  return hw::make_payload(std::move(d));
}

std::uint64_t stamped_id(const ChannelMsg& m) {
  std::uint64_t id = 0;
  std::memcpy(&id, m.data->data(), sizeof id);
  return id;
}

// ---------------------------------------------------------------------------
// Conference-like scenario: four receivers, one per cluster, each fed by
// three senders on other clusters.  Senders pace themselves with
// seed-randomized compute and message sizes; receivers merge their three
// channels with read_any and log arrivals in delivery order.
// ---------------------------------------------------------------------------

constexpr int kSendersPerRecv = 3;
constexpr int kMsgsPerSender = 8;

// Per-receiver delivery log, in arrival order: "s<sender>#<seq>;"...
using DeliveryLogs = std::map<int, std::string>;

void spawn_conference(vorx::System& sys, std::uint64_t seed,
                      DeliveryLogs& logs) {
  const int nodes = sys.num_nodes();  // 14
  for (int k = 0; k < 4; ++k) {
    const int recv = 4 * k;  // one receiver per cluster: 0, 4, 8, 12
    logs[recv];              // materialize before any thread runs
    std::vector<int> senders;
    std::vector<std::string> names;
    for (int j = 0; j < kSendersPerRecv; ++j) {
      const int s = (recv + 1 + 4 * j) % nodes;
      senders.push_back(s);
      names.push_back("c" + std::to_string(s) + "to" + std::to_string(recv));
    }
    // Receiver: open its channels in a fixed global order (rendezvous
    // opens; the fixed order keeps the setup deadlock-free), then merge.
    std::string* log = &logs[recv];
    std::vector<std::string> sorted_names = names;
    std::sort(sorted_names.begin(), sorted_names.end());
    sys.node(recv).spawn_process(
        "rx" + std::to_string(recv),
        [sorted_names, log](Subprocess& sp) -> sim::Task<void> {
          std::vector<Channel*> chans;
          for (const std::string& n : sorted_names)
            chans.push_back(co_await sp.open(n));
          for (int m = 0; m < kSendersPerRecv * kMsgsPerSender; ++m) {
            auto [ch, msg] = co_await sp.read_any(chans);
            const std::uint64_t id = stamped_id(msg);
            *log += 's' + std::to_string(id / 1000) + '#' +
                    std::to_string(id % 1000) + ';';
          }
        });
    for (int j = 0; j < kSendersPerRecv; ++j) {
      const int s = senders[static_cast<std::size_t>(j)];
      const std::string name = names[static_cast<std::size_t>(j)];
      const std::uint64_t pair_seed = seed * 10007 + s * 100 + recv;
      sys.node(s).spawn_process(
          "tx" + std::to_string(s) + "to" + std::to_string(recv),
          [s, name, pair_seed](Subprocess& sp) -> sim::Task<void> {
            sim::Rng rng(pair_seed);
            Channel* ch = co_await sp.open(name);
            for (int i = 0; i < kMsgsPerSender; ++i) {
              co_await sp.compute(sim::usec(1 + rng.below(60)));
              const auto bytes =
                  static_cast<std::uint32_t>(16 + rng.below(1000));
              co_await sp.write(
                  *ch, bytes,
                  stamp(static_cast<std::uint64_t>(s) * 1000 +
                            static_cast<std::uint64_t>(i),
                        bytes));
            }
          });
    }
  }
}

// shards == 0 -> the historical single-Simulator engine (no runtime at
// all); shards >= 1 -> a ShardRuntime-driven System.
DeliveryLogs run_conference(int shards, std::uint64_t seed) {
  vorx::SystemConfig cfg;
  cfg.nodes = 14;
  cfg.hosts = 2;  // 16 stations -> 4 clusters of 4 -> up to 4 shards
  cfg.stations_per_cluster = 4;
  DeliveryLogs logs;
  if (shards == 0) {
    sim::Simulator sim;
    vorx::System sys(sim, cfg);
    spawn_conference(sys, seed, logs);
    sim.run();
  } else {
    sim::ShardRuntime rt(shards);
    vorx::System sys(rt, cfg);
    spawn_conference(sys, seed, logs);
    rt.run();
  }
  return logs;
}

// The per-source subsequence of one receiver's log.
std::string stream_of(const std::string& log, int sender) {
  const std::string tag = 's' + std::to_string(sender) + '#';
  std::string out;
  std::istringstream ss(log);
  std::string tok;
  while (std::getline(ss, tok, ';'))
    if (tok.rfind(tag, 0) == 0) out += tok + ';';
  return out;
}

std::vector<std::string> sorted_tokens(const std::string& log) {
  std::vector<std::string> v;
  std::istringstream ss(log);
  std::string tok;
  while (std::getline(ss, tok, ';')) v.push_back(tok);
  std::sort(v.begin(), v.end());
  return v;
}

std::string render(const DeliveryLogs& logs) {
  std::string out;
  for (const auto& [recv, log] : logs) {
    out += 'r' + std::to_string(recv) + ':' + log + '\n';
  }
  return out;
}

TEST(ShardDifferential, OneShardIsByteIdenticalToSequential) {
  for (const std::uint64_t seed : {1ULL, 20260809ULL}) {
    const DeliveryLogs plain = run_conference(0, seed);
    const DeliveryLogs one = run_conference(1, seed);
    EXPECT_EQ(render(plain), render(one)) << "seed " << seed;
  }
}

TEST(ShardDifferential, ConferenceStreamsMatchAcrossShardCounts) {
  for (const std::uint64_t seed : {1ULL, 7ULL, 20260809ULL}) {
    const DeliveryLogs plain = run_conference(0, seed);
    for (const int shards : {2, 4}) {
      const DeliveryLogs sharded = run_conference(shards, seed);
      ASSERT_EQ(sharded.size(), plain.size());
      for (const auto& [recv, log] : plain) {
        const std::string& got = sharded.at(recv);
        // Same messages, exactly once each...
        EXPECT_EQ(sorted_tokens(got), sorted_tokens(log))
            << "receiver " << recv << " shards " << shards << " seed "
            << seed;
        // ...and every (receiver, source) stream in sequential order.
        for (int j = 0; j < kSendersPerRecv; ++j) {
          const int s = (recv + 1 + 4 * j) % 14;
          EXPECT_EQ(stream_of(got, s), stream_of(log, s))
              << "receiver " << recv << " sender " << s << " shards "
              << shards << " seed " << seed;
        }
      }
    }
  }
}

TEST(ShardDifferential, TwoShardOrderGolden) {
  // A sharded run is deterministic in its own right: the merged delivery
  // order is a pure function of (topology, workload, N) — never of thread
  // scheduling.  Pin the 2-shard merge order of the seed-1 conference.
  const std::string got = render(run_conference(2, 1));
  EXPECT_EQ(got, render(run_conference(2, 1)));  // in-process repeatability
  check_against_golden("shard2_order.golden.txt", got);
}

TEST(ShardDifferential, FourShardOrderGolden) {
  const std::string got = render(run_conference(4, 1));
  EXPECT_EQ(got, render(run_conference(4, 1)));
  check_against_golden("shard4_order.golden.txt", got);
}

// ---------------------------------------------------------------------------
// Multicast-fft-like scenario: one hardware multicast group spanning every
// cluster, the root streaming distinct-size messages.  Hardware multicast
// is a single-source FIFO per member, so each member's full delivery
// sequence must be identical at every shard count.
// ---------------------------------------------------------------------------

std::vector<std::string> run_multicast(int shards) {
  vorx::SystemConfig cfg;
  cfg.nodes = 12;
  cfg.hosts = 1;  // 13 stations -> 4 clusters
  cfg.stations_per_cluster = 4;
  constexpr int kWrites = 6;

  auto drive = [&](vorx::System& sys) {
    std::vector<int> members;
    for (int i = 0; i < 12; ++i) members.push_back(i);
    auto handles = sys.create_multicast_group(9, members, /*root=*/0,
                                              vorx::McastMode::kHardware);
    auto logs = std::make_shared<std::vector<std::string>>(12);
    sys.node(0).spawn_process("root", [handles](Subprocess& sp)
                                          -> sim::Task<void> {
      for (int m = 0; m < kWrites; ++m) {
        co_await sp.compute(sim::usec(5));
        co_await handles[0]->write(
            sp, static_cast<std::uint32_t>(64 * (m + 1)));
      }
    });
    for (int i = 0; i < 12; ++i) {
      sys.node(i).spawn_process(
          "m" + std::to_string(i),
          [handles, logs, i](Subprocess& sp) -> sim::Task<void> {
            for (int m = 0; m < kWrites; ++m) {
              ChannelMsg msg =
                  co_await handles[static_cast<std::size_t>(i)]->read(sp);
              (*logs)[static_cast<std::size_t>(i)] +=
                  std::to_string(msg.bytes) + ';';
            }
          });
    }
    return logs;
  };

  if (shards == 0) {
    sim::Simulator sim;
    vorx::System sys(sim, cfg);
    auto logs = drive(sys);
    sim.run();
    return *logs;
  }
  sim::ShardRuntime rt(shards);
  vorx::System sys(rt, cfg);
  auto logs = drive(sys);
  rt.run();
  return *logs;
}

TEST(ShardDifferential, MulticastDeliveryMatchesAcrossShardCounts) {
  const std::vector<std::string> plain = run_multicast(0);
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i], "64;128;192;256;320;384;") << "member " << i;
  }
  for (const int shards : {1, 2, 4}) {
    EXPECT_EQ(run_multicast(shards), plain) << "shards " << shards;
  }
}

// ---------------------------------------------------------------------------
// Routing differential at paper scale (DESIGN.md §15): on the 1024-node
// machine, adaptive routing must deliver exactly the frames e-cube
// delivers — same multiset of (src, seq) at every receiver — with every
// frame on a minimal path (the no-livelock hop bound), under the sharded
// engine.  The injection schedule is a pure function of the seed, so both
// modes see identical offered traffic.
// ---------------------------------------------------------------------------

struct RoutingRun {
  // Per receiver: sorted (src, seq) pairs — the delivered multiset.
  std::vector<std::vector<std::pair<int, int>>> got;
  // Per receiver: the same pairs in arrival order.
  std::vector<std::vector<std::pair<int, int>>> order;
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
};

RoutingRun run_routing(int shards, hw::TopologyKind topo, hw::RoutingMode mode,
                       std::uint64_t seed) {
  constexpr int kStations = 1024;
  constexpr int kFramesPerStation = 3;
  sim::ShardRuntime rt(shards);
  hw::FabricParams params;
  params.topo = topo;
  params.routing = mode;
  auto fab = hw::Fabric::make_sharded(rt, kStations, 4, params);
  // 256 station clusters; the fat tree adds its 8 spines (12 - 4 uplinks).
  EXPECT_EQ(fab->num_clusters(),
            topo == hw::TopologyKind::kFatTree ? 256 + 8 : 256);

  // The schedule (inject times, destinations) depends only on the seed:
  // computed up front on the main thread, read-only afterwards.
  hw::Schedule sends(kStations);
  sim::Rng rng(seed);
  for (int s = 0; s < kStations; ++s) {
    sim::SimTime t = 0;
    for (int i = 0; i < kFramesPerStation; ++i) {
      t += sim::usec(2 + rng.below(40));
      hw::Send send{t, hw::Frame{}};
      send.frame.dst = static_cast<int>(rng.below(kStations - 1));
      if (send.frame.dst >= s) ++send.frame.dst;  // never self
      send.frame.seq = static_cast<std::uint64_t>(i);
      send.frame.payload_bytes = 64;
      sends[static_cast<std::size_t>(s)].push_back(std::move(send));
    }
  }
  hw::FabricTraffic traffic(*fab, std::move(sends));
  traffic.start();
  rt.run();

  RoutingRun run;
  run.sent = traffic.sent();
  run.delivered = traffic.delivered();
  for (int s = 0; s < kStations; ++s) {
    std::vector<std::pair<int, int>> order;
    for (const hw::Delivery& d : traffic.received(s)) {
      // Minimal-path bound: a frame that looped or detoured would exceed
      // the deterministic route length.
      EXPECT_EQ(d.hops, fab->route_length(d.src, s)) << d.src << "->" << s;
      order.push_back({d.src, static_cast<int>(d.seq)});
    }
    run.order.push_back(order);
    std::sort(order.begin(), order.end());
    run.got.push_back(std::move(order));
  }
  EXPECT_EQ(fab->frames_dropped(), 0u);
  return run;
}

TEST(ShardDifferential, AdaptiveRoutingDeliversExactlyEcubesFrames1024Nodes) {
  constexpr std::uint64_t kSeed = 20260809;
  const RoutingRun ecube = run_routing(
      /*shards=*/4, hw::TopologyKind::kHypercube, hw::RoutingMode::kEcube,
      kSeed);
  const RoutingRun adaptive = run_routing(
      /*shards=*/4, hw::TopologyKind::kHypercube, hw::RoutingMode::kAdaptive,
      kSeed);
  // Everything offered was injected and delivered in both modes (a
  // livelocked or deadlocked fabric would stall its senders).
  EXPECT_EQ(ecube.sent, 1024u * 3u);
  EXPECT_EQ(adaptive.sent, 1024u * 3u);
  EXPECT_EQ(ecube.delivered, ecube.sent);
  EXPECT_EQ(adaptive.delivered, adaptive.sent);
  // Per-receiver multiset equality: adaptive delivers exactly the frames
  // e-cube delivers — nothing lost, duplicated, or misdelivered.
  for (int s = 0; s < 1024; ++s) {
    ASSERT_EQ(adaptive.got[static_cast<std::size_t>(s)],
              ecube.got[static_cast<std::size_t>(s)])
        << "receiver " << s;
  }
}

TEST(ShardDifferential, FatTreeDeliversSameFramesAtEveryShardCount1024Nodes) {
  // The sharded fat tree: leaves split into contiguous blocks, spines dealt
  // round-robin, so most leaf-spine cables of a multi-shard run are split
  // into bridged halves.  Adaptive uplink choice reads port readiness on
  // the leaf's own shard; the delivered frames must not depend on it.
  constexpr std::uint64_t kSeed = 20260809;
  const RoutingRun one = run_routing(
      /*shards=*/1, hw::TopologyKind::kFatTree, hw::RoutingMode::kAdaptive,
      kSeed);
  EXPECT_EQ(one.sent, 1024u * 3u);
  EXPECT_EQ(one.delivered, one.sent);
  for (const int shards : {2, 4}) {
    const RoutingRun sharded = run_routing(
        shards, hw::TopologyKind::kFatTree, hw::RoutingMode::kAdaptive, kSeed);
    EXPECT_EQ(sharded.sent, one.sent) << "shards " << shards;
    EXPECT_EQ(sharded.delivered, one.delivered) << "shards " << shards;
    for (int s = 0; s < 1024; ++s) {
      ASSERT_EQ(sharded.got[static_cast<std::size_t>(s)],
                one.got[static_cast<std::size_t>(s)])
          << "receiver " << s << " shards " << shards;
    }
  }
  // A 4-shard run is deterministic: the same arrival order every time.
  const RoutingRun a = run_routing(
      /*shards=*/4, hw::TopologyKind::kFatTree, hw::RoutingMode::kAdaptive,
      kSeed);
  const RoutingRun b = run_routing(
      /*shards=*/4, hw::TopologyKind::kFatTree, hw::RoutingMode::kAdaptive,
      kSeed);
  EXPECT_EQ(a.order, b.order);
}

}  // namespace
}  // namespace hpcvorx
