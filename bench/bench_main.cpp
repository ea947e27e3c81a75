// Common entry point for every bench binary (the gtest_main pattern: this
// file lives in a static library; the linker pulls it in to satisfy the C
// runtime's reference to main).  Runs the benches registered with
// HPCVORX_BENCH and optionally writes one schema-stable JSON file:
//
//   {"schema": "hpcvorx-bench-v1",
//    "quick": false,
//    "hardware_concurrency": 8,
//    "rows": [{"bench": "table2_channels",
//              "metric": "table2.latency_us.4B",
//              "unit": "us", "clock": "virtual", "measured": 301.02,
//              "paper": 303, "deviation_pct": -0.65}, ...]}
//
// `paper` and `deviation_pct` are null for reproduction-only rows;
// `clock` is "virtual", "wall" or "wall_cores" (bench::Clock).  The
// run_all binary links every bench, so
//
//   build/bench/run_all --json BENCH_results.json
//
// regenerates every number in EXPERIMENTS.md in one command (see the
// per-section "Regenerating" lines there).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "tools/trace_export.hpp"

namespace hpcvorx::bench {

void Reporter::export_trace(vorx::System& sys, const std::string& tag) {
  if (trace_dir_.empty()) return;
  const std::string path =
      trace_dir_ + "/" + bench_ + "." + tag + ".trace.json";
  if (tools::TraceExporter::from_system(sys).write_file(path)) {
    std::printf("  -> wrote trace %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "error: cannot write trace %s\n", path.c_str());
  }
}

}  // namespace hpcvorx::bench

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--quick] [--json FILE] [--trace DIR] [--list] [name...]\n",
      argv0);
  std::printf("  --quick      reduced iteration counts (CI smoke mode)\n");
  std::printf("  --json FILE  write BENCH_results.json-format rows to FILE\n");
  std::printf("  --trace DIR  write Chrome trace_event JSON per traced run\n");
  std::printf("  --list       list registered benches and exit\n");
  std::printf("  name...      run only the named benches\n");
}

const char* clock_name(hpcvorx::bench::Clock c) {
  switch (c) {
    case hpcvorx::bench::Clock::kVirtual:
      return "virtual";
    case hpcvorx::bench::Clock::kWall:
      return "wall";
    case hpcvorx::bench::Clock::kWallCores:
      return "wall_cores";
  }
  return "virtual";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";  // JSON has no inf/nan
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

bool write_json(const std::string& path,
                const std::vector<hpcvorx::bench::Row>& rows, bool quick) {
  std::ofstream f(path, std::ios::binary);
  if (!f) return false;
  // Machine shape alongside the numbers: "wall_cores" rows are only
  // comparable between files recorded on equally wide machines, and the
  // comparison tool uses this field to know when that holds.
  f << "{\"schema\":\"hpcvorx-bench-v1\",\"quick\":"
    << (quick ? "true" : "false") << ",\"hardware_concurrency\":"
    << std::thread::hardware_concurrency() << ",\"rows\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const hpcvorx::bench::Row& r = rows[i];
    f << (i == 0 ? "" : ",") << "\n{\"bench\":\"" << r.bench
      << "\",\"metric\":\"" << r.metric << "\",\"unit\":\"" << r.unit
      << "\",\"clock\":\"" << clock_name(r.clock)
      << "\",\"measured\":" << json_number(r.measured) << ",\"paper\":";
    if (r.paper.has_value()) {
      f << json_number(*r.paper) << ",\"deviation_pct\":"
        << json_number(hpcvorx::bench::dev(r.measured, *r.paper));
    } else {
      f << "null,\"deviation_pct\":null";
    }
    f << "}";
  }
  f << "\n]}\n";
  return f.good();
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool list = false;
  std::string json_path;
  std::string trace_dir;
  std::vector<std::string> filter;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--quick") {
      quick = true;
    } else if (a == "--list") {
      list = true;
    } else if (a == "--json") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --json needs a file argument\n");
        return 2;
      }
      json_path = argv[++i];
    } else if (a == "--trace") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --trace needs a directory argument\n");
        return 2;
      }
      trace_dir = argv[++i];
    } else if (a == "--help" || a == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!a.empty() && a[0] == '-') {
      std::fprintf(stderr, "error: unknown flag %s\n", a.c_str());
      usage(argv[0]);
      return 2;
    } else {
      filter.push_back(a);
    }
  }

  std::vector<hpcvorx::bench::Bench> benches = hpcvorx::bench::registry();
  std::sort(benches.begin(), benches.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });

  if (list) {
    for (const auto& b : benches) {
      std::printf("%-24s %s\n", b.name.c_str(), b.title.c_str());
    }
    return 0;
  }

  for (const std::string& want : filter) {
    const bool known = std::any_of(
        benches.begin(), benches.end(),
        [&want](const auto& b) { return b.name == want; });
    if (!known) {
      std::fprintf(stderr, "error: unknown bench \"%s\" (--list shows them)\n",
                   want.c_str());
      return 2;
    }
  }

  std::vector<hpcvorx::bench::Row> rows;
  for (const auto& b : benches) {
    if (!filter.empty() &&
        std::find(filter.begin(), filter.end(), b.name) == filter.end()) {
      continue;
    }
    hpcvorx::bench::heading(b.title, b.paper_ref);
    hpcvorx::bench::Reporter r(b.name, quick, trace_dir);
    try {
      b.fn(r);
    } catch (const std::invalid_argument& e) {
      // A machine the fabric rejects: a configuration error, reported
      // with the fabric's actionable message instead of a terminate.
      std::fprintf(stderr, "error: %s: %s\n", b.name.c_str(), e.what());
      return 2;
    }
    rows.insert(rows.end(), r.rows().begin(), r.rows().end());
    std::printf("\n");
  }

  if (!json_path.empty()) {
    if (!write_json(json_path, rows, quick)) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %zu rows to %s\n", rows.size(), json_path.c_str());
  }
  return 0;
}
