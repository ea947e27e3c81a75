#include "tools/oscilloscope.hpp"

#include <algorithm>
#include <array>
#include <cstdio>

namespace hpcvorx::tools {

namespace {
char glyph_for(sim::Category c) {
  switch (c) {
    case sim::Category::kUser: return 'U';
    case sim::Category::kSystem:
    case sim::Category::kContextSwitch: return 'S';
    case sim::Category::kIdleInput: return 'i';
    case sim::Category::kIdleOutput: return 'o';
    case sim::Category::kIdleMixed: return 'm';
    case sim::Category::kIdleOther: return '.';
  }
  return '?';
}

// Time per category within [t0, t1), each interval clipped to the window.
std::array<sim::Duration, sim::kNumCategories> category_totals(
    const std::vector<sim::Interval>& intervals, sim::SimTime t0,
    sim::SimTime t1) {
  std::array<sim::Duration, sim::kNumCategories> totals{};
  for (const sim::Interval& iv : intervals) {
    const sim::SimTime a = std::max(iv.start, t0);
    const sim::SimTime b = std::min(iv.end, t1);
    if (b > a) totals[static_cast<std::size_t>(iv.category)] += b - a;
  }
  return totals;
}
}  // namespace

Oscilloscope::Util Oscilloscope::utilization(hw::StationId s, sim::SimTime t0,
                                             sim::SimTime t1) const {
  const auto totals =
      category_totals(sys_.station(s).cpu().ledger().intervals(), t0, t1);
  const double span = static_cast<double>(t1 - t0);
  Util u;
  if (span <= 0) return u;
  u.user = static_cast<double>(totals[0]) / span;
  u.system = static_cast<double>(totals[1] + totals[2]) / span;
  u.idle_input = static_cast<double>(
                     totals[static_cast<std::size_t>(sim::Category::kIdleInput)]) /
                 span;
  u.idle_output =
      static_cast<double>(
          totals[static_cast<std::size_t>(sim::Category::kIdleOutput)]) /
      span;
  u.idle_mixed = static_cast<double>(
                     totals[static_cast<std::size_t>(sim::Category::kIdleMixed)]) /
                 span;
  u.idle_other = static_cast<double>(
                     totals[static_cast<std::size_t>(sim::Category::kIdleOther)]) /
                 span;
  return u;
}

std::string Oscilloscope::render(sim::SimTime t0, sim::SimTime t1,
                                 int cols) const {
  const int stations = sys_.num_nodes() + sys_.num_hosts();
  std::vector<std::string> names;
  std::vector<std::vector<sim::Interval>> intervals;
  for (int s = 0; s < stations; ++s) {
    names.push_back(sys_.station(s).name());
    intervals.push_back(sys_.station(s).cpu().ledger().intervals());
  }
  return render_interval_timeline(names, intervals, t0, t1, cols) +
         "legend: U user, S system, i idle-input, o idle-output, m "
         "idle-mixed, . idle-other\n";
}

std::string Oscilloscope::render_csv(sim::SimTime t0, sim::SimTime t1,
                                     int buckets) const {
  std::string out =
      "station,bucket,t_start_us,user,system,idle_input,idle_output,idle_mixed,idle_other\n";
  const int stations = sys_.num_nodes() + sys_.num_hosts();
  char line[256];
  for (int s = 0; s < stations; ++s) {
    for (int b = 0; b < buckets; ++b) {
      const sim::SimTime a = t0 + (t1 - t0) * b / buckets;
      const sim::SimTime z = t0 + (t1 - t0) * (b + 1) / buckets;
      const Util u = utilization(s, a, z);
      std::snprintf(line, sizeof line, "%s,%d,%.1f,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f\n",
                    sys_.station(s).name().c_str(), b, sim::to_usec(a), u.user,
                    u.system, u.idle_input, u.idle_output, u.idle_mixed,
                    u.idle_other);
      out += line;
    }
  }
  return out;
}

std::string render_interval_timeline(
    const std::vector<std::string>& names,
    const std::vector<std::vector<sim::Interval>>& intervals, sim::SimTime t0,
    sim::SimTime t1, int cols) {
  std::string out;
  char head[128];
  std::snprintf(head, sizeof head, "time %s .. %s  (%d buckets)\n",
                sim::format_duration(t0).c_str(),
                sim::format_duration(t1).c_str(), cols);
  out += head;
  for (std::size_t s = 0; s < names.size(); ++s) {
    std::string row;
    for (int b = 0; b < cols; ++b) {
      const sim::SimTime a = t0 + (t1 - t0) * b / cols;
      const sim::SimTime z = t0 + (t1 - t0) * (b + 1) / cols;
      const auto totals = category_totals(intervals[s], a, z);
      std::size_t best = 0;
      for (std::size_t c = 1; c < totals.size(); ++c) {
        if (totals[c] > totals[best]) best = c;
      }
      sim::Duration sum = 0;
      for (sim::Duration d : totals) sum += d;
      row += sum == 0 ? ' ' : glyph_for(static_cast<sim::Category>(best));
    }
    char label[32];
    std::snprintf(label, sizeof label, "%-6s |", names[s].c_str());
    out += label + row + "|\n";
  }
  return out;
}

}  // namespace hpcvorx::tools
