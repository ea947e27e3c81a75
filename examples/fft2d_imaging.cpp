// The §4.2 image-processing scenario: a 2-D FFT distributed over a pool of
// processing nodes, run with both transpose-exchange strategies.
//
//   ./build/examples/fft2d_imaging [n] [p]
//
// n (default 64) is the image size, a power of two; p (default 8) is the
// number of processing nodes and must divide n.
#include <cstdio>

#include "apps/fft2d_app.hpp"
#include "parse_whole.hpp"

using namespace hpcvorx;

int main(int argc, char** argv) {
  if (argc > 3) {
    std::fprintf(stderr, "usage: %s [n] [p]\n", argv[0]);
    return 2;
  }
  const int n = argc > 1 ? examples::whole_at_least("fft2d_imaging", "n",
                                                     argv[1], 1)
                         : 64;
  const int p = argc > 2 ? examples::whole_at_least("fft2d_imaging", "p",
                                                     argv[2], 1)
                         : 8;
  if ((n & (n - 1)) != 0) {
    std::fprintf(stderr, "fft2d_imaging: n: not a power of two: %d\n", n);
    return 2;
  }
  if (n % p != 0) {
    std::fprintf(stderr, "fft2d_imaging: p: %d does not divide n = %d\n", p,
                 n);
    return 2;
  }
  std::printf("2-D FFT of a %dx%d image on %d processing nodes\n\n", n, n, p);

  for (const bool multicast : {false, true}) {
    sim::Simulator sim;
    vorx::SystemConfig scfg;
    scfg.nodes = p;
    vorx::System sys(sim, scfg);

    apps::Fft2dConfig cfg;
    cfg.n = n;
    cfg.p = p;
    cfg.use_multicast = multicast;
    const apps::Fft2dResult res = apps::run_fft2d(sim, sys, cfg);

    std::printf("%s exchange:\n", multicast ? "multicast   " : "personalized");
    std::printf("  total time        %s\n",
                sim::format_duration(res.elapsed).c_str());
    std::printf("  exchange time     %s\n",
                sim::format_duration(res.exchange_elapsed).c_str());
    std::printf("  data read         %.1f kB (needed %.1f kB)\n",
                res.bytes_received / 1e3, res.bytes_needed / 1e3);
    std::printf("  matches serial    %s  (checksum %016llx)\n\n",
                res.matches_serial ? "yes" : "NO",
                static_cast<unsigned long long>(res.result_checksum));
  }
  std::printf(
      "Lesson (§4.2): multicast forces every node to read the whole matrix;\n"
      "sending each receiver only its columns wins as soon as P grows.\n");
  return 0;
}
