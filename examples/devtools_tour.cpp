// A tour of the §6 program-development tools on a deliberately imbalanced
// pipeline application:
//   * prof       — where does the time go inside one process?
//   * oscilloscope — how well are the processors utilized / balanced?
//   * vdb        — what is every subprocess doing right now?
//   * cdb        — which channel is the bottleneck / is anything deadlocked?
//
// and of the offline trace replay (§6.2's record-now-display-later, over a
// CI-archived Perfetto trace instead of a live System):
//
//   ./build/examples/devtools_tour [--trace DIR]
//   ./build/examples/devtools_tour --replay FILE [--cols N]
//   ./build/examples/devtools_tour --replay-diff FILE_A FILE_B [--cols N]
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>

#include "parse_whole.hpp"
#include "tools/cdb.hpp"
#include "tools/oscilloscope.hpp"
#include "tools/prof.hpp"
#include "tools/trace_export.hpp"
#include "tools/trace_replay.hpp"
#include "tools/vdb.hpp"
#include "vorx/node.hpp"
#include "vorx/system.hpp"

using namespace hpcvorx;
using vorx::Channel;
using vorx::Subprocess;

namespace {

// --replay: re-render a saved *.trace.json and exit.  No simulation runs;
// this is how an archived CI artifact is inspected offline.
int replay(const std::string& path, int cols) {
  const tools::TraceReplay rep = tools::TraceReplay::load(path);
  if (!rep.ok()) {
    std::fprintf(stderr, "devtools_tour: cannot replay %s\n", path.c_str());
    return 1;
  }
  std::printf("=== replay of %s: %d stations ===\n%s", path.c_str(),
              rep.stations(), rep.render(0, rep.end_time(), cols).c_str());
  std::printf("legend: U user, S system, i idle-input, o idle-output, "
              "m idle-mixed, . idle-other\n");
  std::printf("\n=== counter tracks ===\n%s", rep.counter_summary().c_str());
  return 0;
}

// --replay-diff: load two traces of the same workload (e.g. the sw- and
// hw-multicast variants of one bench) and render them side by side — both
// station timelines, then the counter tracks aligned by (track, counter).
int replay_diff(const std::string& path_a, const std::string& path_b,
                int cols) {
  const tools::TraceReplay a = tools::TraceReplay::load(path_a);
  const tools::TraceReplay b = tools::TraceReplay::load(path_b);
  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "devtools_tour: cannot replay %s\n",
                 (a.ok() ? path_b : path_a).c_str());
    return 1;
  }
  // A shared time axis, so the two waveforms line up column for column.
  const sim::SimTime end = std::max(a.end_time(), b.end_time());
  std::printf("=== A: %s (%d stations) ===\n%s", path_a.c_str(), a.stations(),
              a.render(0, end, cols).c_str());
  std::printf("=== B: %s (%d stations) ===\n%s", path_b.c_str(), b.stations(),
              b.render(0, end, cols).c_str());
  std::printf("legend: U user, S system, i idle-input, o idle-output, "
              "m idle-mixed, . idle-other\n");
  std::printf("\n=== counter diff ===\n%s",
              tools::TraceReplay::counter_diff(a, b, "A", "B").c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string replay_path;
  std::string diff_a, diff_b;
  std::string trace_dir;
  int cols = 64;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--replay") == 0 && i + 1 < argc) {
      replay_path = argv[++i];
    } else if (std::strcmp(argv[i], "--replay-diff") == 0 && i + 2 < argc) {
      diff_a = argv[++i];
      diff_b = argv[++i];
    } else if (std::strcmp(argv[i], "--cols") == 0 && i + 1 < argc) {
      cols = examples::whole_at_least("devtools_tour", "--cols", argv[++i], 1);
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_dir = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace DIR] [--replay FILE [--cols N]] "
                   "[--replay-diff FILE_A FILE_B [--cols N]]\n",
                   argv[0]);
      return 2;
    }
  }
  if (!diff_a.empty()) return replay_diff(diff_a, diff_b, cols);
  if (!replay_path.empty()) return replay(replay_path, cols);

  sim::Simulator sim;
  vorx::SystemConfig cfg;
  cfg.nodes = 4;
  cfg.record_intervals = true;  // the oscilloscope needs the recording
  cfg.record_counters = !trace_dir.empty();  // --trace wants counter tracks
  vorx::System sys(sim, cfg);
  tools::Profiler prof;

  // A three-stage pipeline with a deliberately slow middle stage: the
  // classic load-balance problem §6.2 says the oscilloscope was built for.
  sys.node(0).spawn_process("source", [&](Subprocess& sp) -> sim::Task<void> {
    Channel* out = co_await sp.open("stage1");
    for (int i = 0; i < 40; ++i) {
      co_await prof.run(sp, "generate", sim::usec(300));
      co_await sp.write(*out, 512);
    }
  });
  sys.node(1).spawn_process("transform", [&](Subprocess& sp)
                                             -> sim::Task<void> {
    Channel* in = co_await sp.open("stage1");
    Channel* out = co_await sp.open("stage2");
    for (int i = 0; i < 40; ++i) {
      (void)co_await sp.read(*in);
      co_await prof.run(sp, "transform_hot_loop", sim::msec(2));  // the hog
      co_await prof.run(sp, "bookkeeping", sim::usec(100));
      co_await sp.write(*out, 512);
    }
  });
  sys.node(2).spawn_process("sink", [&](Subprocess& sp) -> sim::Task<void> {
    Channel* in = co_await sp.open("stage2");
    for (int i = 0; i < 40; ++i) {
      (void)co_await sp.read(*in);
      co_await prof.run(sp, "commit", sim::usec(200));
    }
  });
  // And one process that will sit blocked forever — for vdb/cdb to find.
  sys.node(3).spawn_process("stuck", [&](Subprocess& sp) -> sim::Task<void> {
    Channel* never = co_await sp.open("nobody-opens-this");
    (void)co_await sp.read(*never);
  });

  sim.run();
  sys.finalize_accounting();

  std::printf("=== prof: flat profile of the pipeline ===\n%s\n",
              prof.render().c_str());

  tools::Oscilloscope osc(sys);
  std::printf("=== software oscilloscope: whole run ===\n%s\n",
              osc.render(0, sim.now(), 64).c_str());
  std::printf("=== oscilloscope: zoom into the steady state ===\n%s\n",
              osc.render(sim.now() / 4, sim.now() / 2, 64).c_str());
  for (int s = 0; s < 3; ++s) {
    const auto u = osc.utilization(s, 0, sim.now());
    std::printf("node %d utilization: user %4.0f%%  system %4.0f%%  "
                "idle-in %4.0f%%  idle-out %4.0f%%\n",
                s, 100 * u.user, 100 * u.system, 100 * u.idle_input,
                100 * u.idle_output);
  }

  std::printf("\n=== vdb: blocked threads ===\n%s",
              tools::Vdb::render(tools::Vdb(sys).blocked()).c_str());

  tools::Cdb cdb(sys);
  std::printf("\n=== cdb: all channels ===\n%s",
              tools::Cdb::render(cdb.snapshot()).c_str());
  const auto dl = cdb.find_deadlock();
  std::printf("\ncdb deadlock scan: %s\n",
              dl.found ? "CYCLE FOUND" : "no wait-for cycle (the stuck "
                                         "process waits on a half-open "
                                         "channel, not a cycle)");

  if (!trace_dir.empty()) {
    const std::string path = trace_dir + "/devtools_tour.trace.json";
    if (tools::TraceExporter::from_system(sys).write_file(path)) {
      std::printf("\ntrace written to %s (replay with --replay)\n",
                  path.c_str());
    } else {
      std::fprintf(stderr, "devtools_tour: cannot write %s\n", path.c_str());
      return 1;
    }
  }
  return 0;
}
