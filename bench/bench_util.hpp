// The shared bench harness.  Every reproduction benchmark registers a run
// function with HPCVORX_BENCH; the common entry point (bench_main.cpp,
// linked into every bench binary — see bench/CMakeLists.txt) runs the
// registered benches and can emit one machine-readable BENCH_results.json
// whose rows EXPERIMENTS.md references by metric key.
//
// A bench does two kinds of output:
//   * bench::line(...) — free-form human-readable tables and commentary;
//   * Reporter::row(metric, unit, measured[, paper]) — one recorded result
//     row per paper-table cell or headline number, read off the virtual
//     clock; Reporter::wall_rate(...) for the few rows that time the
//     simulator itself.  Rows are echoed to stdout with their metric key
//     and land in the JSON file with the clock they read.
#pragma once

#include <cstdarg>
#include <cstdio>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace hpcvorx::vorx {
class System;
}  // namespace hpcvorx::vorx

namespace hpcvorx::bench {

/// The clock a row's value was read from.  Virtual rows are identical on
/// every run and host, and tests/goldens/bench_rows.golden.txt pins each
/// one exactly.  Wall rows time the simulator on the host; every one is a
/// rate or a speedup, so higher is better, and
/// scripts/compare_bench_json.py gates them against a baseline artifact.
enum class Clock {
  kVirtual,
  kWall,
  kWallCores,  // a wall row whose value also depends on the core count
};

/// One machine-readable result: a cell of a paper table, a headline
/// number, or a reproduction-only measurement.  `paper` holds the
/// published value when the artifact has one.
struct Row {
  std::string bench;
  std::string metric;
  std::string unit;
  double measured = 0;
  std::optional<double> paper;
  Clock clock = Clock::kVirtual;
};

/// Percent deviation of measured from paper, for side-by-side columns.
inline double dev(double measured, double paper) {
  return paper != 0 ? 100.0 * (measured - paper) / paper : 0.0;
}

inline void heading(const std::string& title, const std::string& paper_ref) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  std::printf("==============================================================\n");
}

inline void line(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vprintf(fmt, ap);
  va_end(ap);
  std::printf("\n");
}

/// Collects the rows of one bench run and carries the run mode.
class Reporter {
 public:
  Reporter(std::string bench_name, bool quick, std::string trace_dir = "")
      : bench_(std::move(bench_name)),
        quick_(quick),
        trace_dir_(std::move(trace_dir)) {}

  /// Records a reproduction-only virtual-time measurement (no paper value).
  void row(const std::string& metric, const std::string& unit,
           double measured) {
    add(metric, unit, measured, Clock::kVirtual);
  }

  /// Records a wall-clock rate (`unit` ends in "/s") or speedup ("x") of
  /// the simulator itself.  `depends_on_cores` marks a value that is only
  /// comparable between equally wide hosts.
  void wall_rate(const std::string& metric, const std::string& unit,
                 double per_s, bool depends_on_cores = false) {
    add(metric, unit, per_s,
        depends_on_cores ? Clock::kWallCores : Clock::kWall);
  }

  /// Records a measurement next to the paper's published value.
  void row(const std::string& metric, const std::string& unit, double measured,
           double paper) {
    rows_.push_back(Row{bench_, metric, unit, measured, paper});
    std::printf("  -> %-44s %14.3f %-5s (paper %g, %+.1f%%)\n", metric.c_str(),
                measured, unit.c_str(), paper, dev(measured, paper));
  }

  /// Quick mode (--quick): the CI smoke run, with reduced iteration
  /// counts.  Benches that sweep should keep every metric key and shrink
  /// only the per-cell work, so the JSON schema is identical in both
  /// modes.
  [[nodiscard]] bool quick() const { return quick_; }
  /// Convenience: pick an iteration count by mode.
  [[nodiscard]] int iters(int full, int quick_count) const {
    return quick_ ? quick_count : full;
  }

  /// Trace mode (--trace DIR): benches that opt in should build their
  /// System with record_intervals and record_counters set, then hand it to
  /// export_trace after sim.run().
  [[nodiscard]] bool tracing() const { return !trace_dir_.empty(); }
  /// Writes `<dir>/<bench>.<tag>.trace.json` (Chrome trace_event format,
  /// loadable in Perfetto).  No-op unless --trace was given.
  void export_trace(vorx::System& sys, const std::string& tag);

  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

 private:
  void add(const std::string& metric, const std::string& unit,
           double measured, Clock clock) {
    rows_.push_back(Row{bench_, metric, unit, measured, std::nullopt, clock});
    std::printf("  -> %-44s %14.3f %s\n", metric.c_str(), measured,
                unit.c_str());
  }

  std::string bench_;
  bool quick_;
  std::string trace_dir_;
  std::vector<Row> rows_;
};

using BenchFn = void (*)(Reporter&);

struct Bench {
  std::string name;       // stable id; the JSON rows' "bench" field
  std::string title;      // human heading
  std::string paper_ref;  // which paper artifact this regenerates
  BenchFn fn;
};

/// Every bench linked into this binary, in registration order (the runner
/// sorts by name before executing).
inline std::vector<Bench>& registry() {
  static std::vector<Bench> r;
  return r;
}

struct Registration {
  Registration(std::string name, std::string title, std::string paper_ref,
               BenchFn fn) {
    registry().push_back(
        Bench{std::move(name), std::move(title), std::move(paper_ref), fn});
  }
};

/// Registers `fn` (void(bench::Reporter&)) under `name`.  One per
/// translation unit.
#define HPCVORX_BENCH(name, title, paper_ref, fn)            \
  static const ::hpcvorx::bench::Registration                \
      hpcvorx_bench_registration_ {                          \
    name, title, paper_ref, fn                               \
  }

}  // namespace hpcvorx::bench
