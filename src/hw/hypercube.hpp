// Incomplete-hypercube routing for the HPC cluster network.
//
// §1 of the paper: "we have chosen to connect the clusters in the shape of
// an incomplete hypercube", citing Katseff, "Incomplete Hypercubes", IEEE
// Trans. Computers 37(5), 1988.  An incomplete hypercube on N labels is
// the induced subgraph of the dim-cube on labels {0..N-1}; N need not be a
// power of two.
//
// Routing uses the classic incomplete-hypercube construction: correct the
// 1→0 address bits from the most significant down (every intermediate
// label only loses bits, so it stays < the source), then correct the 0→1
// bits from the least significant up (every intermediate is a subset of
// the destination's bits, so it stays <= the destination).  Every
// intermediate label is therefore a valid cluster, the path length equals
// the Hamming distance, and — because the (direction, dimension) pairs are
// visited in a globally consistent order — the route set is deadlock-free
// under whole-frame buffering.
//
// Labels are a fixed-width unsigned type (CubeLabel).  The label math used
// signed int with `1 << b` masks while fabrics topped out at ~80 nodes; at
// 4096 nodes and beyond the unsigned type keeps every mask, xor, and
// comparison free of sign/overflow hazards by construction and makes the
// valid range explicit: up to 2^31 labels.
#pragma once

#include <cassert>
#include <cstdint>
#include <vector>

namespace hpcvorx::hw {

/// Cluster label in the (possibly incomplete) hypercube.  Unsigned and
/// fixed-width so dimension masks and xor-distance math are well defined
/// for every supported fabric size (label count up to 2^31).
using CubeLabel = std::uint32_t;

/// Largest supported label count: masks are `CubeLabel{1} << b` with
/// b < 32, so N may not exceed 2^31.
inline constexpr CubeLabel kMaxCubeLabels = CubeLabel{1} << 31;

/// Number of address bits needed for N labels (dimension of the enclosing
/// cube).  dimension_of(1) == 0.
[[nodiscard]] constexpr int dimension_of(CubeLabel n) {
  assert(n >= 1 && n <= kMaxCubeLabels);
  int bits = 0;
  while ((CubeLabel{1} << bits) < n) ++bits;
  return bits;
}

/// The index of the single set bit of `mask` (== the cube dimension a hop
/// across `mask` traverses).
[[nodiscard]] constexpr int bit_index(CubeLabel mask) {
  assert(mask != 0 && (mask & (mask - 1)) == 0);
  int b = 0;
  while ((mask & 1u) == 0) {
    mask >>= 1u;
    ++b;
  }
  return b;
}

/// True if labels a and b are adjacent in the hypercube (differ in one bit).
[[nodiscard]] constexpr bool hypercube_adjacent(CubeLabel a, CubeLabel b) {
  const CubeLabel d = a ^ b;
  return d != 0 && (d & (d - 1)) == 0;
}

/// The next label on the route from `from` to `to` in an incomplete
/// hypercube with `n` labels.  Preconditions: from,to < n, from != to.
/// The returned label is always < n and adjacent to `from`.
[[nodiscard]] constexpr CubeLabel next_hypercube_hop(CubeLabel from,
                                                     CubeLabel to,
                                                     CubeLabel n) {
  assert(from < n && to < n && from != to);
  const CubeLabel diff = from ^ to;
  // Phase 1: clear bits set in `from` but not `to`, MSB first.
  for (int b = dimension_of(n) - 1; b >= 0; --b) {
    const CubeLabel mask = CubeLabel{1} << b;
    if ((diff & mask) != 0 && (from & mask) != 0) return from ^ mask;
  }
  // Phase 2: set bits present in `to` but not `from`, LSB first.
  for (int b = 0;; ++b) {
    const CubeLabel mask = CubeLabel{1} << b;
    if ((diff & mask) != 0) {
      assert((to & mask) != 0);
      return from ^ mask;
    }
  }
}

/// The full route from `from` to `to` (excluding `from`, including `to`).
[[nodiscard]] inline std::vector<CubeLabel> hypercube_route(CubeLabel from,
                                                            CubeLabel to,
                                                            CubeLabel n) {
  std::vector<CubeLabel> route;
  while (from != to) {
    from = next_hypercube_hop(from, to, n);
    route.push_back(from);
  }
  return route;
}

/// Hamming distance between labels (== route length).
[[nodiscard]] constexpr int hamming_distance(CubeLabel a, CubeLabel b) {
  CubeLabel d = a ^ b;
  int c = 0;
  while (d != 0) {
    d &= d - 1;
    ++c;
  }
  return c;
}

}  // namespace hpcvorx::hw
