// Complex FFT kernels for the §4.2 image-processing experiment.
//
// "The 2DFFT of a 256x256 grey scale image is computed as follows: compute
// a 256-point one-dimensional Complex FFT for each row ... [then] a
// 256-point 1DFFT for each column."
//
// The kernel is Ooura-style split-radix ("General Purpose FFT Package",
// the multi-level-cache fftsg variant): an L-shaped decimation-in-frequency
// recursion (one half + two quarter sub-transforms) over a precomputed
// twiddle table, depth-first so every sub-transform drops into
// successively smaller cache levels, with a final bit-reversal pass.  The
// 2-D path additionally walks the column transforms in narrow panels
// instead of one strided column at a time.  Nodes and the serial check run
// the same kernel, so their results compare bit for bit.
//
// A naive O(n^2) DFT reference backs the unit tests.
#pragma once

#include <complex>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/time.hpp"

namespace hpcvorx::apps {

using Complex = std::complex<double>;

/// In-place FFT.  data.size() must be a power of two.  `inverse` applies
/// the conjugate transform (unnormalized).
void fft(std::span<Complex> data, bool inverse = false);

/// O(n^2) reference DFT (tests only).
[[nodiscard]] std::vector<Complex> dft_reference(std::span<const Complex> in,
                                                 bool inverse = false);

/// Row-major n x n 2-D FFT: 1-D FFT of every row, then of every column.
/// One twiddle table serves all 2n transforms, and columns are processed
/// in cache-friendly panels.
void fft2d(std::vector<Complex>& image, int n);

/// Virtual-time cost of one n-point complex FFT on a 25 MHz 68020+68882:
/// (n/2) log2(n) butterflies at ~40 us each (~10 flops/butterfly at
/// ~0.25 MFLOPS).
[[nodiscard]] sim::Duration fft_cost(int n);

/// Deterministic pseudo-image (grey-scale levels as real parts).
[[nodiscard]] std::vector<Complex> make_test_image(int n, std::uint64_t seed);

/// FNV-1a over the byte representation (cross-run result comparison).
[[nodiscard]] std::uint64_t checksum(std::span<const Complex> data);

}  // namespace hpcvorx::apps
