// The software oscilloscope (§6.2).
//
// "VORX includes a tool called the software oscilloscope that helps the
// programmer visualize how well processors of an application are utilized
// and how well the computational load is balanced. ... displays a graph
// for each processor indicating CPU time usage with different colors used
// to partition time into several categories ... user time ... system time
// ... idle time [partitioned into] waiting for input ... waiting for
// output ... some threads waiting for input and others waiting for output
// ... idle for some other reason.  Execution data is recorded while the
// application is running and later the software oscilloscope is used to
// display the data.  The software oscilloscope synchronizes all the graphs
// with each other ... It is possible to freeze the display, run faster or
// slower than real-time, or seek to any moment in execution time."
//
// Recording is the CPU models' interval ledgers (SystemConfig::
// record_intervals); the saved recording is the trace tools::TraceExporter
// writes, which tools::TraceReplay renders offline.  Rendering produces
// synchronized per-processor character timelines; freeze/zoom/seek are
// expressed as the [t0, t1) window and column count of render().
#pragma once

#include <string>
#include <vector>

#include "vorx/system.hpp"

namespace hpcvorx::tools {

/// The oscilloscope-style timeline renderer over raw per-station interval
/// lists: one row per station, `cols` dominant-category glyph buckets over
/// [t0, t1).  Shared by the live tool and by tools::TraceReplay, so a trace
/// re-rendered offline matches the running System's timeline.
[[nodiscard]] std::string render_interval_timeline(
    const std::vector<std::string>& names,
    const std::vector<std::vector<sim::Interval>>& intervals, sim::SimTime t0,
    sim::SimTime t1, int cols);

class Oscilloscope {
 public:
  explicit Oscilloscope(vorx::System& sys) : sys_(sys) {}

  /// Per-category time shares for one station over a window.
  struct Util {
    double user = 0;
    double system = 0;  // includes context-switch time
    double idle_input = 0;
    double idle_output = 0;
    double idle_mixed = 0;
    double idle_other = 0;
  };
  [[nodiscard]] Util utilization(hw::StationId s, sim::SimTime t0,
                                 sim::SimTime t1) const;

  /// Synchronized timelines, one row per station, `cols` time buckets wide
  /// (render_interval_timeline), then a legend line.  Bucket glyphs: U
  /// user, S system (incl. switches), i idle-input, o idle-output, m
  /// idle-mixed, '.' idle-other.  Any [t0, t1) window may be rendered: that
  /// is the freeze/zoom/seek capability.
  [[nodiscard]] std::string render(sim::SimTime t0, sim::SimTime t1,
                                   int cols) const;

  /// Machine-readable export: one row per (station, bucket) with shares.
  [[nodiscard]] std::string render_csv(sim::SimTime t0, sim::SimTime t1,
                                       int buckets) const;

 private:
  vorx::System& sys_;
};

}  // namespace hpcvorx::tools
