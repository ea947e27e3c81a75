// Execution-time accounting shared by the CPU model and the monitoring
// tools (software oscilloscope, prof).
//
// The categories follow §6.2 of the paper: user code, operating-system
// code, and idle time subdivided by *why* the processor is idle (waiting
// for input, for output, a mix of both across threads, or something else).
// Context-switch time is kept in its own bucket so the §5 experiments can
// report it; the oscilloscope folds it into system time, as `prof` on the
// real machine would have.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/time.hpp"

namespace hpcvorx::sim {

enum class Category : std::uint8_t {
  kUser = 0,
  kSystem,
  kContextSwitch,
  kIdleInput,
  kIdleOutput,
  kIdleMixed,
  kIdleOther,
};

inline constexpr std::size_t kNumCategories = 7;

[[nodiscard]] constexpr std::string_view category_name(Category c) {
  switch (c) {
    case Category::kUser: return "user";
    case Category::kSystem: return "system";
    case Category::kContextSwitch: return "ctxsw";
    case Category::kIdleInput: return "idle-input";
    case Category::kIdleOutput: return "idle-output";
    case Category::kIdleMixed: return "idle-mixed";
    case Category::kIdleOther: return "idle-other";
  }
  return "?";
}

[[nodiscard]] constexpr bool is_idle(Category c) {
  return c == Category::kIdleInput || c == Category::kIdleOutput ||
         c == Category::kIdleMixed || c == Category::kIdleOther;
}

/// One contiguous span of CPU time attributed to a category.
struct Interval {
  SimTime start;
  SimTime end;
  Category category;
};

/// Per-CPU record of how execution time was spent.  Totals are always
/// maintained; the interval list (needed only by the oscilloscope) is
/// recorded when enabled, to keep long benchmark runs cheap.
class TimeLedger {
 public:
  void add(SimTime start, SimTime end, Category cat) {
    if (end <= start) return;
    totals_[static_cast<std::size_t>(cat)] += end - start;
    if (recording_) intervals_.push_back({start, end, cat});
  }

  [[nodiscard]] Duration total(Category cat) const {
    return totals_[static_cast<std::size_t>(cat)];
  }

  /// Sum over every category (== elapsed time covered by the ledger).
  [[nodiscard]] Duration grand_total() const {
    Duration t = 0;
    for (Duration d : totals_) t += d;
    return t;
  }

  [[nodiscard]] Duration busy_total() const {
    return total(Category::kUser) + total(Category::kSystem) +
           total(Category::kContextSwitch);
  }

  void enable_recording(bool on) { recording_ = on; }
  [[nodiscard]] bool recording() const { return recording_; }
  [[nodiscard]] const std::vector<Interval>& intervals() const { return intervals_; }
  void clear() {
    totals_.fill(0);
    intervals_.clear();
  }

 private:
  std::array<Duration, kNumCategories> totals_{};
  std::vector<Interval> intervals_;
  bool recording_ = false;
};

/// Opt-in timeline of named hardware/OS counters (queue depths, cumulative
/// messages/bytes, blocked time, context switches).  Components sample into
/// the Simulator's timeline whenever a counter changes; the trace exporter
/// (src/tools/trace_export.hpp) turns the samples into Chrome trace_event
/// counter tracks.  Disabled by default so long benchmark runs pay only a
/// branch per change; all timestamps are virtual time.
class CounterTimeline {
 public:
  struct Sample {
    std::string track;    // the emitting entity, e.g. "node0", "link:n0->c0"
    std::string counter;  // e.g. "txq_depth", "bytes", "blocked_us"
    SimTime t;
    double value;
  };

  /// What to do when the sample count reaches the configured cap.
  /// Long-running simulations with counters on used to grow without bound;
  /// a bounded policy keeps memory flat at the cost of history:
  ///   * kUnbounded — keep everything (the default, and the only mode in
  ///     which exported traces are complete);
  ///   * kDecimate  — halve resolution: record only every 2^k-th sample,
  ///     doubling k whenever the buffer fills, so the retained set stays
  ///     uniformly spaced over the whole run at progressively coarser
  ///     grain (per-position, not per-track).
  enum class Retention { kUnbounded, kDecimate };

  void enable(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Bounds the timeline at `max_samples` under `policy`, compacting the
  /// samples already recorded until they fit.  Passing kUnbounded ignores
  /// max_samples.  Compaction is amortized: it runs only when the buffer
  /// hits the cap and removes half of it, so sample() stays O(1)
  /// amortized.
  void set_retention(Retention policy, std::size_t max_samples = 0) {
    policy_ = policy;
    max_samples_ = max_samples;
    if (policy_ != Retention::kUnbounded && max_samples_ < 2) max_samples_ = 2;
    compact_if_needed();
  }

  /// Samples discarded by the retention policy so far (0 when unbounded).
  [[nodiscard]] std::uint64_t samples_dropped() const { return dropped_; }

  /// Records one sample (no-op while disabled).  Samples are kept in
  /// insertion order, which is chronological: the simulator's clock never
  /// goes backwards.
  void sample(std::string_view track, std::string_view counter, SimTime t,
              double value) {
    if (!enabled_) return;
    if (policy_ == Retention::kDecimate &&
        (sample_index_++ % decimate_stride_) != 0) {
      ++dropped_;
      return;
    }
    samples_.push_back(
        Sample{std::string(track), std::string(counter), t, value});
    compact_if_needed();
  }

  [[nodiscard]] const std::vector<Sample>& samples() const { return samples_; }
  void clear() {
    samples_.clear();
    dropped_ = 0;
    decimate_stride_ = 1;
    sample_index_ = 0;
  }

 private:
  void compact_if_needed() {
    // The retained samples sit at a uniform stride, so keeping the even
    // positions halves the density everywhere while preserving the span —
    // and new arrivals thin out to match via the doubled recording
    // stride.
    while (policy_ == Retention::kDecimate && samples_.size() >= max_samples_) {
      const std::size_t before = samples_.size();
      std::size_t w = 0;
      for (std::size_t r = 0; r < before; r += 2) {
        samples_[w++] = std::move(samples_[r]);
      }
      samples_.resize(w);
      decimate_stride_ *= 2;
      dropped_ += before - w;
    }
  }

  bool enabled_ = false;
  Retention policy_ = Retention::kUnbounded;
  std::size_t max_samples_ = 0;
  std::uint64_t dropped_ = 0;
  std::uint64_t decimate_stride_ = 1;  // record every Nth sample (kDecimate)
  std::uint64_t sample_index_ = 0;
  std::vector<Sample> samples_;
};

}  // namespace hpcvorx::sim
