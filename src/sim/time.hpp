// Virtual-time types for the HPC/VORX discrete-event simulator.
//
// All simulated time is kept in integer nanoseconds.  Integer time makes
// every run bit-for-bit reproducible and keeps event ordering exact; the
// paper's quantities (software latencies in microseconds, link rates in
// Mbit/s) are all representable without rounding surprises.
#pragma once

#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace hpcvorx::sim {

/// A point in virtual time, in nanoseconds since simulation start.
using SimTime = std::int64_t;

/// A span of virtual time, in nanoseconds.
using Duration = std::int64_t;

inline constexpr Duration kNanosecond = 1;
inline constexpr Duration kMicrosecond = 1'000;
inline constexpr Duration kMillisecond = 1'000'000;
inline constexpr Duration kSecond = 1'000'000'000;

/// Builds a Duration from (possibly fractional) microseconds.
[[nodiscard]] constexpr Duration usec(double us) {
  return static_cast<Duration>(us * static_cast<double>(kMicrosecond) + 0.5);
}

/// Builds a Duration from (possibly fractional) milliseconds.
[[nodiscard]] constexpr Duration msec(double ms) {
  return static_cast<Duration>(ms * static_cast<double>(kMillisecond) + 0.5);
}

/// Builds a Duration from (possibly fractional) seconds.
[[nodiscard]] constexpr Duration sec(double s) {
  return static_cast<Duration>(s * static_cast<double>(kSecond) + 0.5);
}

/// Converts a Duration to fractional microseconds (for reporting).
[[nodiscard]] constexpr double to_usec(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kMicrosecond);
}

/// Converts a Duration to fractional milliseconds (for reporting).
[[nodiscard]] constexpr double to_msec(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kMillisecond);
}

/// Converts a Duration to fractional seconds (for reporting).
[[nodiscard]] constexpr double to_sec(Duration d) {
  return static_cast<double>(d) / static_cast<double>(kSecond);
}

/// The nearest-rank rule, as a 0-based index into a sorted sample of `n`
/// (n > 0) values: rank ceil(n * pct / 100), rank 1 when that is 0.  The
/// one place the rule is written; nearest_rank and selection-based
/// callers (vorx::percentile_us) both index with it.
[[nodiscard]] constexpr std::size_t nearest_rank_index(std::size_t n,
                                                       int pct) {
  assert(n > 0 && pct >= 0 && pct <= 100);
  const std::size_t rank = (n * static_cast<std::size_t>(pct) + 99) / 100;
  return rank == 0 ? 0 : rank - 1;
}

/// Nearest-rank percentile of a sorted, non-empty sample: the
/// rank-ceil(n * pct / 100) sample, rank 1 when that is 0.  It is always a
/// measured value, and p50 of an even count is the lower middle sample.
[[nodiscard]] inline Duration nearest_rank(std::span<const Duration> sorted,
                                           int pct) {
  return sorted[nearest_rank_index(sorted.size(), pct)];
}

/// Human-readable rendering, e.g. "303.0us" or "2.13s".
[[nodiscard]] std::string format_duration(Duration d);

}  // namespace hpcvorx::sim
