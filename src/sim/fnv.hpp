// FNV-1a (64-bit): the one stable, platform-independent hash behind every
// checksum and name hash in the simulator, so results never depend on the
// standard library's std::hash.
#pragma once

#include <cstdint>

namespace hpcvorx::sim {

/// The hash of no input; fold values in with fnv1a_step().
inline constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

/// Folds one value (a byte, or a whole word) into the running hash `h`.
[[nodiscard]] constexpr std::uint64_t fnv1a_step(std::uint64_t h,
                                                 std::uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;
}

}  // namespace hpcvorx::sim
