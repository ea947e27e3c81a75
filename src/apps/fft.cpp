#include "apps/fft.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numbers>

#include "sim/random.hpp"

namespace hpcvorx::apps {

namespace {

// Twiddle table for the split-radix kernel: w[j] = exp(s * 2*pi*i * j / n)
// with s = -1 forward / +1 inverse (Ooura's makewt idiom — computed once
// per size+direction and shared across every transform of a batch, instead
// of a running product whose rounding error compounds along each row).
// The table spans [0, n) because the third-harmonic twiddle reaches 3n/4.
std::vector<Complex> make_twiddles(std::size_t n, bool inverse) {
  std::vector<Complex> w(n);
  const double step =
      2 * std::numbers::pi / static_cast<double>(n) * (inverse ? 1 : -1);
  for (std::size_t j = 0; j < n; ++j) {
    const double a = step * static_cast<double>(j);
    w[j] = Complex(std::cos(a), std::sin(a));
  }
  return w;
}

// One L-shaped split-radix DIF step on x[0..n): the even outputs collapse
// into a half-size transform in place at x[0..n/2) and the odd outputs
// into two quarter-size transforms at x[n/2..3n/4) and x[3n/4..n), each
// recursed depth-first.  Depth-first means a size-2^k machine walks the
// data once per cache level instead of once per butterfly rank — the
// fftsg "multi-level cache" shape.  Output lands bit-reversed (same
// permutation as radix-2), fixed by the caller in one final pass.
// `wstep` maps a local twiddle exponent to the shared full-size table.
void srfft_rec(Complex* x, std::size_t n, std::size_t wstep, const Complex* w,
               bool inverse) {
  if (n <= 2) {
    if (n == 2) {
      const Complex u = x[0];
      x[0] = u + x[1];
      x[1] = u - x[1];
    }
    return;
  }
  const std::size_t q = n / 4;
  for (std::size_t k = 0; k < q; ++k) {
    const Complex d0 = x[k] - x[k + 2 * q];
    const Complex d1 = x[k + q] - x[k + 3 * q];
    x[k] += x[k + 2 * q];
    x[k + q] += x[k + 3 * q];
    // Forward: (d0 - i*d1) * w^k and (d0 + i*d1) * w^(3k); the rotation
    // flips sign with the transform direction, matching the table.
    const Complex rot = inverse ? Complex(-d1.imag(), d1.real())
                                : Complex(d1.imag(), -d1.real());
    x[k + 2 * q] = (d0 + rot) * w[k * wstep];
    x[k + 3 * q] = (d0 - rot) * w[3 * k * wstep];
  }
  srfft_rec(x, n / 2, wstep * 2, w, inverse);
  srfft_rec(x + n / 2, q, wstep * 4, w, inverse);
  srfft_rec(x + 3 * q, q, wstep * 4, w, inverse);
}

void fft_blocked(std::span<Complex> data, bool inverse,
                 const std::vector<Complex>& w) {
  const std::size_t n = data.size();
  srfft_rec(data.data(), n, 1, w.data(), inverse);
  // Bit-reversal permutation (DIF leaves outputs bit-reversed).
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; (j & bit) != 0; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(data[i], data[j]);
  }
}

}  // namespace

void fft(std::span<Complex> data, bool inverse) {
  const std::size_t n = data.size();
  assert(n != 0 && (n & (n - 1)) == 0 && "FFT size must be a power of two");
  const std::vector<Complex> w = make_twiddles(n, inverse);
  fft_blocked(data, inverse, w);
}

std::vector<Complex> dft_reference(std::span<const Complex> in, bool inverse) {
  const std::size_t n = in.size();
  std::vector<Complex> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc(0);
    for (std::size_t t = 0; t < n; ++t) {
      const double angle = 2 * std::numbers::pi * static_cast<double>(k) *
                           static_cast<double>(t) / static_cast<double>(n) *
                           (inverse ? 1 : -1);
      acc += in[t] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

void fft2d(std::vector<Complex>& image, int n) {
  assert(static_cast<int>(image.size()) == n * n);
  const std::size_t un = static_cast<std::size_t>(n);
  // One twiddle table shared across all 2n transforms (fftsg2d keeps a
  // single `w` for the whole image), and the column pass walks panels of
  // adjacent columns so every gathered row segment is one or two cache
  // lines instead of a single strided element.
  const std::vector<Complex> w = make_twiddles(un, /*inverse=*/false);
  for (int r = 0; r < n; ++r) {
    fft_blocked(
        std::span<Complex>(image.data() + static_cast<std::size_t>(r) * un, un),
        false, w);
  }
  constexpr std::size_t kPanel = 8;  // 8 columns x 16 B = two cache lines
  std::vector<Complex> panel(kPanel * un);
  for (std::size_t c0 = 0; c0 < un; c0 += kPanel) {
    const std::size_t width = std::min(kPanel, un - c0);
    for (std::size_t r = 0; r < un; ++r) {
      const Complex* src = image.data() + r * un + c0;
      for (std::size_t j = 0; j < width; ++j) panel[j * un + r] = src[j];
    }
    for (std::size_t j = 0; j < width; ++j) {
      fft_blocked(std::span<Complex>(panel.data() + j * un, un), false, w);
    }
    for (std::size_t r = 0; r < un; ++r) {
      Complex* dst = image.data() + r * un + c0;
      for (std::size_t j = 0; j < width; ++j) dst[j] = panel[j * un + r];
    }
  }
}

sim::Duration fft_cost(int n) {
  int log2n = 0;
  while ((1 << log2n) < n) ++log2n;
  return sim::usec(40) * (n / 2) * log2n;
}

std::vector<Complex> make_test_image(int n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<Complex> img(static_cast<std::size_t>(n) * n);
  for (auto& px : img) {
    px = Complex(static_cast<double>(rng.below(256)), 0.0);
  }
  return img;
}

std::uint64_t checksum(std::span<const Complex> data) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Complex& c : data) {
    unsigned char bytes[2 * sizeof(double)];
    const double re = c.real();
    const double im = c.imag();
    std::memcpy(bytes, &re, sizeof re);
    std::memcpy(bytes + sizeof re, &im, sizeof im);
    for (unsigned char b : bytes) {
      h ^= b;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace hpcvorx::apps
