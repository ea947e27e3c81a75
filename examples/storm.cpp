// Production-traffic storm: the Rapport-shaped open-loop workload at
// machine scale, with fault injection.
//
//   ./build/examples/storm --users 100000 --shards 4
//       --faults link_flap --seed 7
//
// Drives vorx::WorkloadGen over a 256-node / 4-host machine (configurable
// with --nodes/--hosts): Poisson session arrivals on a diurnal curve,
// member churn, heavy-tailed talk spurts — while a sim::FaultPlan takes
// cables, switches, and host workstations down mid-run.  The printed
// summary is pure virtual time, so two runs with the same arguments are
// byte-identical (the CI fault-matrix job diffs exactly this output; see
// DESIGN.md §14).  --shards 0 and 1 print the same bytes; each N >= 2 is
// deterministic and pinned on its own, but may legally differ from the
// sequential run (DESIGN.md §12.4).
//
// Exits 1 if any session is lost-but-unreported (the accounting invariant
// completed + failed == total must hold with lost == 0), and 2 on a usage
// error, including a machine the fabric cannot build.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>

#include "parse_whole.hpp"
#include "sim/fault_plan.hpp"
#include "sim/shard_runtime.hpp"
#include "vorx/system.hpp"
#include "vorx/workload.hpp"

using namespace hpcvorx;

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--users N] [--shards N] [--faults PLAN]\n"
               "          [--seed S] [--nodes N] [--hosts N] "
               "[--horizon-ms M]\n"
               "  --shards 0 (default) runs the sequential engine; N >= 1\n"
               "  runs the conservative-lookahead shard runtime.\n"
               "  PLAN: none | link_flap | cluster_restart | stub_crash\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int users = 10'000;
  int shards = 0;
  int nodes = 256;
  int hosts = 4;
  long horizon_ms = 500;
  std::uint64_t seed = 1;
  std::string plan_name = "none";

  for (int i = 1; i < argc; ++i) {
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    // Every numeric flag must be a whole integer: "--shards four" or
    // "--users 1e5" is a usage error, not 0 shards or 1 user.
    auto number = [&](const char* flag, auto& out) {
      const char* text = next(flag);
      if (!examples::parse_whole(text, out)) {
        std::fprintf(stderr, "storm: %s: not an integer: %s\n", flag, text);
        std::exit(2);
      }
    };
    if (std::strcmp(argv[i], "--users") == 0) {
      number("--users", users);
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      number("--shards", shards);
    } else if (std::strcmp(argv[i], "--faults") == 0) {
      plan_name = next("--faults");
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      number("--seed", seed);
    } else if (std::strcmp(argv[i], "--nodes") == 0) {
      number("--nodes", nodes);
    } else if (std::strcmp(argv[i], "--hosts") == 0) {
      number("--hosts", hosts);
    } else if (std::strcmp(argv[i], "--horizon-ms") == 0) {
      number("--horizon-ms", horizon_ms);
    } else {
      return usage(argv[0]);
    }
  }
  if (users <= 0 || nodes < 1 || hosts < 1 || horizon_ms <= 0 ||
      shards < 0 || !sim::FaultPlan::known(plan_name)) {
    return usage(argv[0]);
  }

  // Lookahead window = inter-cluster cable latency (see storm_machine).
  const vorx::SystemConfig scfg = vorx::storm_machine(nodes, hosts);

  vorx::WorkloadConfig wcfg;
  wcfg.users = users;
  wcfg.horizon = sim::msec(horizon_ms);

  // Machines are built the same way on either engine; only the driver
  // differs.  --shards 1 is byte-identical to the sequential run (R6).
  // A machine the fabric cannot build (too many nodes for the cluster
  // port budget, more shards than clusters), or a horizon the workload's
  // latency samples cannot span, is a usage error: print the actionable
  // message rather than terminate on the exception.
  std::unique_ptr<sim::Simulator> seq_sim;
  std::unique_ptr<sim::ShardRuntime> rt;
  std::unique_ptr<vorx::System> sys;
  std::unique_ptr<vorx::WorkloadGen> gen;
  try {
    if (shards == 0) {
      seq_sim = std::make_unique<sim::Simulator>();
      sys = std::make_unique<vorx::System>(*seq_sim, scfg);
    } else {
      rt = std::make_unique<sim::ShardRuntime>(shards);
      sys = std::make_unique<vorx::System>(*rt, scfg);
    }
    gen = std::make_unique<vorx::WorkloadGen>(*sys, wcfg, seed);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "storm: %s\n", e.what());
    return 2;
  }

  vorx::FaultInjector inj(*sys, gen.get());
  const sim::FaultPlan plan = sim::FaultPlan::named(
      plan_name, gen->machine_shape(), seed, wcfg.horizon);
  inj.install(plan);

  std::printf("storm: users=%d nodes=%d hosts=%d horizon_ms=%ld seed=%llu\n",
              users, nodes, hosts, horizon_ms,
              static_cast<unsigned long long>(seed));
  std::printf("faults: plan=%s events=%zu link=%llu cluster=%llu host=%llu\n",
              plan_name.c_str(), plan.events().size(),
              static_cast<unsigned long long>(inj.link_faults()),
              static_cast<unsigned long long>(inj.cluster_restarts()),
              static_cast<unsigned long long>(inj.host_faults()));

  gen->run();
  const vorx::WorkloadReport r = gen->report();
  std::fputs(r.to_text().c_str(), stdout);

  if (!r.all_accounted()) {
    std::printf("workload: FAILED (lost=%llu, completed+failed=%llu of "
                "%llu)\n",
                static_cast<unsigned long long>(r.lost),
                static_cast<unsigned long long>(r.completed + r.failed_joins),
                static_cast<unsigned long long>(r.sessions_total));
    return 1;
  }
  std::printf("workload: OK\n");
  return 0;
}
