// A Rapport-style multimedia conference (§1: "applications such as
// multimedia conferencing between workstations, with real-time video and
// high-fidelity audio transmission between conferees").
//
// Three workstations exchange audio (160-byte frames every 20 ms) and
// video tiles (8 kB per tile, 10 tiles/s to each peer) over channels while
// a compute application loads the node pool — demonstrating that the
// local-area multicomputer carries interactive traffic and batch work on
// one interconnect.
//
//   ./build/examples/conference [seconds] [--shards N] [--trace DIR]
//                               [--topo cube|fattree] [--routing ecube|adaptive]
//
// --shards N runs the machine on the conservative-lookahead shard runtime
// (DESIGN.md §12) with one worker thread per shard.  N = 1 reports the
// sequential run's latencies byte for byte; each N >= 2 is deterministic
// and pinned on its own, and may legally differ from the sequential run
// (DESIGN.md §12.4).
//
// --topo / --routing pick the interconnect shape and forwarding policy
// (DESIGN.md §15): the same conference runs over the incomplete hypercube
// or the two-level fat tree, under deterministic or congestion-aware
// adaptive routing, so the media latencies can be compared across fabrics.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "hw/topology.hpp"
#include "parse_whole.hpp"
#include "tools/trace_export.hpp"
#include "vorx/node.hpp"
#include "vorx/system.hpp"

using namespace hpcvorx;
using vorx::Channel;
using vorx::ChannelMsg;
using vorx::Subprocess;

namespace {

// Media frames carry their send time in the first 8 payload bytes.
hw::Payload stamp(sim::SimTime now, std::size_t bytes) {
  std::vector<std::byte> data(bytes);
  std::memcpy(data.data(), &now, sizeof now);
  return hw::make_payload(std::move(data));
}

sim::SimTime sent_time(const ChannelMsg& m) {
  sim::SimTime t = 0;
  std::memcpy(&t, m.data->data(), sizeof t);
  return t;
}

struct Stats {
  std::vector<sim::Duration> audio_latency;
  std::vector<sim::Duration> video_latency;
};

// One conferee: sends media to both peers, receives from both.
sim::Task<void> conferee(Subprocess& sp, int me, int seconds,
                         std::shared_ptr<Stats> stats) {
  std::vector<Channel*> in;   // from each peer
  std::vector<Channel*> out;  // to each peer
  // Open the directed media channels in one global (sorted) order so the
  // blocking rendezvous cannot deadlock across conferees.
  for (int src = 0; src < 3; ++src) {
    for (int dst = 0; dst < 3; ++dst) {
      if (src == dst || (src != me && dst != me)) continue;
      const std::string name =
          "m" + std::to_string(src) + "to" + std::to_string(dst);
      Channel* ch = co_await sp.open(name);
      (src == me ? out : in).push_back(ch);
    }
  }

  // Receiver subprocess: timestamped latency per media frame.
  sp.process().spawn(
      [in, stats, seconds](Subprocess& rsp) -> sim::Task<void> {
        const int audio_per_peer = seconds * 50;
        const int video_per_peer = seconds * 10;
        int remaining = 2 * (audio_per_peer + video_per_peer);
        std::vector<Channel*> chans = in;
        while (remaining-- > 0) {
          auto [ch, m] = co_await rsp.read_any(chans);
          const sim::Duration lat =
              rsp.node().simulator().now() - sent_time(m);
          if (m.bytes <= 160) {
            stats->audio_latency.push_back(lat);
          } else {
            stats->video_latency.push_back(lat);
          }
        }
      },
      sim::prio::kUserDefault + 50, "media-rx");

  // Sender: audio every 20 ms, a video tile every 100 ms, to both peers.
  const int ticks = seconds * 50;  // 20 ms periods
  for (int t = 0; t < ticks; ++t) {
    co_await sp.sleep(sim::msec(20));
    for (Channel* ch : out) {
      co_await sp.write(*ch, 160, stamp(sp.node().simulator().now(), 160));
    }
    if (t % 5 == 4) {
      // 8 kB video tile, fragmented into HPC-sized channel messages.
      for (Channel* ch : out) {
        for (int frag = 0; frag < 8; ++frag) {
          co_await sp.write(*ch, 1024,
                            stamp(sp.node().simulator().now(), 1024));
        }
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  int seconds = 2;
  int shards = 0;  // 0 = the plain single-simulator engine
  std::string trace_dir;
  vorx::SystemConfig cfg;
  cfg.nodes = 8;
  cfg.hosts = 3;  // the conferees' workstations
  for (int i = 1; i < argc; ++i) {
    try {
      if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
        trace_dir = argv[++i];
        continue;
      } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
        if (examples::parse_whole(argv[++i], shards) && shards >= 0) continue;
      } else if (std::strcmp(argv[i], "--topo") == 0 && i + 1 < argc) {
        cfg.fabric.topo = hw::parse_topology(argv[++i]);
        continue;
      } else if (std::strcmp(argv[i], "--routing") == 0 && i + 1 < argc) {
        cfg.fabric.routing = hw::parse_routing(argv[++i]);
        continue;
      } else if (argv[i][0] != '-') {
        seconds = examples::whole_at_least("conference", "seconds", argv[i], 1);
        continue;
      }
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "conference: %s\n", e.what());
      return 2;
    }
    std::fprintf(stderr,
                 "usage: %s [seconds] [--shards N] [--trace DIR]\n"
                 "          [--topo cube|fattree] [--routing ecube|adaptive]\n",
                 argv[0]);
    return 2;
  }
  // --trace: record the waveform + counter timeline and export a Perfetto
  // trace of the whole conference (interactive media against batch load is
  // the most interesting timeline the examples produce).
  cfg.record_intervals = !trace_dir.empty();
  cfg.record_counters = !trace_dir.empty();

  // --shards N: run the machine on the conservative-lookahead shard
  // runtime (DESIGN.md §12), one worker thread per shard.  N=1 is the
  // sequential engine byte for byte; each N >= 2 is deterministic on its
  // own (DESIGN.md §12.4).  The fabric owns the bound (no more shards than
  // clusters): a machine it cannot build is a usage error carrying its
  // message.
  std::unique_ptr<sim::ShardRuntime> rt;
  std::unique_ptr<sim::Simulator> seq_sim;
  std::unique_ptr<vorx::System> sys;
  try {
    if (shards > 0) {
      rt = std::make_unique<sim::ShardRuntime>(shards);
      sys = std::make_unique<vorx::System>(*rt, cfg);
    } else {
      seq_sim = std::make_unique<sim::Simulator>();
      sys = std::make_unique<vorx::System>(*seq_sim, cfg);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "conference: %s\n", e.what());
    return 2;
  }

  auto stats = std::make_shared<Stats>();
  for (int ws = 0; ws < 3; ++ws) {
    sys->host(ws).spawn_process(
        "conferee" + std::to_string(ws),
        [ws, seconds, stats](Subprocess& sp) -> sim::Task<void> {
          co_await conferee(sp, ws, seconds, stats);
        });
  }
  // Background load: node pool runs a compute+exchange application.
  for (int n = 0; n < 8; ++n) {
    sys->node(n).spawn_process(
        "batch" + std::to_string(n), [n, seconds](Subprocess& sp)
                                         -> sim::Task<void> {
          Channel* ch = co_await sp.open("batch" + std::to_string(n / 2));
          for (int i = 0; i < seconds * 20; ++i) {
            co_await sp.compute(sim::msec(20));
            if (n % 2 == 0) {
              co_await sp.write(*ch, 1024);
            } else {
              (void)co_await sp.read(*ch);
            }
          }
        });
  }

  if (rt) {
    rt->run();
    std::printf("ran on %d shards (%llu sync rounds, lookahead %s)\n",
                shards, static_cast<unsigned long long>(rt->rounds()),
                sim::format_duration(rt->lookahead()).c_str());
  } else {
    seq_sim->run();
  }

  auto report = [](const char* what, std::vector<sim::Duration>& v) {
    if (v.empty()) {
      std::printf("%s: none\n", what);
      return;
    }
    std::sort(v.begin(), v.end());
    const sim::Duration p50 = sim::nearest_rank(v, 50);
    const sim::Duration p99 = sim::nearest_rank(v, 99);
    std::printf("%s: %zu frames, median latency %s, p99 %s\n", what, v.size(),
                sim::format_duration(p50).c_str(),
                sim::format_duration(p99).c_str());
  };
  std::printf("conference over %d workstations + 8 loaded nodes, %ds:\n",
              3, seconds);
  report("audio (160 B / 20 ms)", stats->audio_latency);
  report("video (8 kB tiles)   ", stats->video_latency);

  if (!trace_dir.empty()) {
    const std::string path = trace_dir + "/conference.trace.json";
    if (!hpcvorx::tools::TraceExporter::from_system(*sys).write_file(path)) {
      std::fprintf(stderr, "conference: cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace written to %s\n", path.c_str());
  }
  return 0;
}
