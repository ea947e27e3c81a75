// A Linda tuple-space application (§4.1 mentions the Linda port as one of
// the systems that pushed beyond channels): master/worker evaluation of a
// bag of tasks, here numerically integrating f(x)=4/(1+x^2) to estimate pi.
//
//   ./build/examples/linda_eval [workers] [tasks]
#include <cmath>
#include <cstdio>

#include "apps/linda.hpp"
#include "parse_whole.hpp"
#include "vorx/system.hpp"
#include "vorx/node.hpp"

using namespace hpcvorx;
using apps::linda::any;
using apps::linda::Client;
using apps::linda::eq;
using apps::linda::Pattern;
using apps::linda::Tuple;

namespace {
constexpr std::int64_t kScale = 1'000'000'000;  // fixed-point results
constexpr std::int64_t kTaskTag = 1;
constexpr std::int64_t kResultTag = 2;
}  // namespace

int main(int argc, char** argv) {
  const int workers = argc > 1 ? examples::whole_at_least(
                                     "linda_eval", "workers", argv[1], 1)
                               : 4;
  const int tasks = argc > 2 ? examples::whole_at_least(
                                   "linda_eval", "tasks", argv[2], 1)
                             : 32;

  sim::Simulator sim;
  vorx::SystemConfig scfg;
  scfg.nodes = workers + 2;
  vorx::System sys(sim, scfg);

  sys.node(0).spawn_process("linda-server", apps::linda::make_server("eval"));

  double pi = 0;
  sys.node(1).spawn_process("master", [&](vorx::Subprocess& sp)
                                          -> sim::Task<void> {
    Client c = co_await Client::connect(sp, "eval");
    for (std::int64_t t = 0; t < tasks; ++t) {
      Tuple task{kTaskTag, t};
      co_await c.out(sp, task);
    }
    Pattern result{{eq(kResultTag), any(), any()}};
    std::int64_t total = 0;
    for (int t = 0; t < tasks; ++t) {
      Tuple r = co_await c.in(sp, result);
      total += r[2];
    }
    pi = static_cast<double>(total) / kScale;
  });

  for (int w = 0; w < workers; ++w) {
    sys.node(2 + w).spawn_process(
        "worker" + std::to_string(w),
        [&, tasks, workers, w](vorx::Subprocess& sp) -> sim::Task<void> {
          Client c = co_await Client::connect(sp, "eval");
          Pattern task_pat{{eq(kTaskTag), any()}};
          // Workers drain the bag until their fair share is done (a real
          // Linda worker would poison-pill; keep the shutdown simple).
          const int share = tasks / workers + (w < tasks % workers ? 1 : 0);
          for (int i = 0; i < share; ++i) {
            Tuple t = co_await c.in(sp, task_pat);
            // Midpoint rule on slice t[1] of [0,1).
            const double x = (static_cast<double>(t[1]) + 0.5) / tasks;
            const double fx = 4.0 / (1.0 + x * x) / tasks;
            co_await sp.compute(sim::msec(2));  // the "work"
            Tuple r{kResultTag, t[1],
                    static_cast<std::int64_t>(fx * kScale)};
            co_await c.out(sp, r);
          }
        });
  }

  sim.run();
  std::printf("pi ~= %.6f (%d tasks over %d workers, %s virtual time)\n", pi,
              tasks, workers, sim::format_duration(sim.now()).c_str());
  std::printf("error = %.2e\n", std::fabs(pi - 3.14159265358979));
  return 0;
}
