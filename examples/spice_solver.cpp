// The §4.1 parallel-SPICE scenario: a distributed sparse solve whose halo
// exchanges are exactly the paper's 64-byte messages, over raw
// user-defined communications objects vs standard channels.
//
//   ./build/examples/spice_solver [ny] [p]
#include <cstdio>

#include "apps/spice_app.hpp"
#include "parse_whole.hpp"

using namespace hpcvorx;

int main(int argc, char** argv) {
  const int ny = argc > 1 ? examples::whole_at_least("spice_solver", "ny",
                                                      argv[1], 1)
                          : 64;
  const int p = argc > 2 ? examples::whole_at_least("spice_solver", "p",
                                                    argv[2], 1)
                         : 4;
  if (ny % p != 0) {
    std::fprintf(stderr, "spice_solver: p: %d does not divide ny = %d\n", p,
                 ny);
    return 2;
  }
  std::printf(
      "Conjugate-gradient solve of an 8x%d grid conductance matrix on %d "
      "nodes\n(halo messages: 8 doubles = the paper's 64-byte SPICE "
      "messages)\n\n",
      ny, p);

  for (const bool channels : {false, true}) {
    sim::Simulator sim;
    vorx::SystemConfig scfg;
    scfg.nodes = p;
    vorx::System sys(sim, scfg);
    apps::SpiceConfig cfg;
    cfg.ny = ny;
    cfg.p = p;
    cfg.use_channels = channels;
    const apps::SpiceResult res = apps::run_spice(sim, sys, cfg);

    std::printf("%s:\n", channels ? "standard channels"
                                  : "raw user-defined objects");
    std::printf("  solve time  %s   iterations %d   residual %.2e\n",
                sim::format_duration(res.elapsed).c_str(), res.iterations,
                res.residual);
    std::printf("  halo messages %llu   matches serial CG: %s\n\n",
                static_cast<unsigned long long>(res.halo_messages),
                res.matches_serial ? "yes" : "NO");
  }
  std::printf(
      "Lesson (§4.1): with direct hardware access a 64-byte message costs\n"
      "~60 us one-way vs ~341 us through the channel protocol.\n");
  return 0;
}
