#include "dsjoin/dsp/fft.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <numbers>
#include <stdexcept>

#include "dsjoin/common/simd.hpp"

namespace dsjoin::dsp {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

// Fft::inverse_band sorts the live slots of bands up to this many bins;
// wider ones are listed by a scan of all size_ slots.
constexpr std::size_t kSortedBandMax = 64;

std::vector<std::size_t> make_bit_reversal(std::size_t n) {
  std::vector<std::size_t> rev(n, 0);
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t r = 0;
    for (std::size_t b = 0; b < bits; ++b) {
      if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (bits - 1 - b);
    }
    rev[i] = r;
  }
  return rev;
}

// Twiddles in stage order: the stage of half-size h (blocks of 2h) reads
// its h factors e^{-2*pi*i*j/(2h)}, j < h, contiguously from offset h - 1.
// Each is computed as e^{-2*pi*i*(j*step)/n}, step = n/(2h): the angle the
// stride-indexed size-n table held, to the bit.
std::vector<Complex> make_twiddles(std::size_t n) {
  std::vector<Complex> tw(n - 1);
  for (std::size_t half = 1; half < n; half <<= 1) {
    const std::size_t step = n / (2 * half);
    for (std::size_t j = 0; j < half; ++j) {
      const double angle = -kTwoPi * static_cast<double>(j * step) /
                           static_cast<double>(n);
      tw[half - 1 + j] = Complex(std::cos(angle), std::sin(angle));
    }
  }
  return tw;
}

// radix2's live-block list. Per thread rather than per plan: Fft::plan
// shares one plan per thread, and a plan may be used from several threads
// at once.
std::vector<std::size_t>& live_list(std::size_t n) {
  thread_local std::vector<std::size_t> live;
  if (live.capacity() < n) live.reserve(n);
  live.clear();
  return live;
}

// Sets `live` to the ascending indices of data's elements that are not two
// exact zeros.
void collect_live(const double* d, std::size_t n, std::vector<std::size_t>& live) {
  live.resize(n);
  std::size_t count = 0;
  for (std::size_t i = 0; i < n; ++i) {
    live[count] = i;
    count += d[2 * i] != 0.0 || d[2 * i + 1] != 0.0 ? 1 : 0;
  }
  live.resize(count);
}

// The butterfly stages of an iterative radix-2 transform over data already
// in bit-reversed order; `live` lists, ascending, the elements that are
// not two exact zeros, and `invert` conjugates the twiddles (exact).
// Scaling is the caller's responsibility. Each stage hands its blocks to
// the dispatched simd:: butterfly kernel, picked once here, which performs
// the operations, in the order, that std::complex<double>'s operator*
// evaluates for finite operands, minus the NaN-recovery branch (__muldc3),
// so finite inputs give the same bits at every level.
//
// Zero blocks: while the previous stage left a block of exact zeros, a
// stage visits only the blocks that hold a live half, and `live` becomes
// the ascending starts of those blocks. A block whose two halves are both
// zero is skipped; a block whose odd half alone is zero gets its even half
// copied over (u +- 0*w == u). Both shortcuts change at most the sign of
// an exact zero, which never reaches a nonzero result (x +- 0 == x,
// 0 * w == 0). Band-limited spectra, a few retained bins out of W, visit a
// few blocks per early stage. Neighbouring blocks that need the butterfly
// go to the kernel in one call; from the first stage without a zero block
// on, each stage is one call.
void run_stages(double* d, std::size_t n, const std::vector<Complex>& twiddles,
                std::vector<std::size_t>& live, bool invert) {
  const common::simd::ButterflyKernel kernel =
      common::simd::butterfly_kernel(invert);
  const auto stage_twiddles = [&](std::size_t half) {
    return reinterpret_cast<const double*>(twiddles.data() + half - 1);
  };
  std::size_t len = 2;
  for (; len <= n && live.size() < n / (len >> 1); len <<= 1) {
    const std::size_t half = len >> 1;
    const double* tw = stage_twiddles(half);
    std::size_t kept = 0;
    std::size_t run_start = 0;
    std::size_t run = 0;  // blocks from run_start awaiting the kernel
    for (std::size_t i = 0; i < live.size();) {
      const std::size_t start = live[i] & ~(len - 1);
      if (live[i] == start) ++i;
      const bool odd_live = i < live.size() && live[i] == start + half;
      if (odd_live) ++i;
      live[kept++] = start;
      if (!odd_live) {
        double* even = d + 2 * start;
        std::copy(even, even + 2 * half, even + 2 * half);
      } else if (run != 0 && run_start + run * len == start) {
        ++run;
      } else {
        if (run != 0) kernel(d + 2 * run_start, run, half, tw);
        run_start = start;
        run = 1;
      }
    }
    if (run != 0) kernel(d + 2 * run_start, run, half, tw);
    live.resize(kept);
  }
  for (; len <= n; len <<= 1) kernel(d, n / len, len >> 1, stage_twiddles(len >> 1));
}

// The complete transform: permute, list the live elements, run the stages.
void radix2(std::span<Complex> data, const std::vector<std::size_t>& rev,
            const std::vector<Complex>& twiddles, bool invert) {
  const std::size_t n = data.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i < rev[i]) std::swap(data[i], data[rev[i]]);
  }
  double* d = reinterpret_cast<double*>(data.data());
  std::vector<std::size_t>& live = live_list(n);
  collect_live(d, n, live);
  run_stages(d, n, twiddles, live, invert);
}

}  // namespace

std::size_t next_power_of_two(std::size_t n) noexcept {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

const Fft& Fft::plan(std::size_t size) {
  // Keyed by exact size; experiments use a handful of sizes (the DFT
  // window, histogram bucket counts), so the map stays tiny. Thread-local
  // so the data planes of an in-process run, one thread per node, never
  // contend or share plans.
  thread_local std::map<std::size_t, Fft> cache;
  const auto it = cache.find(size);
  if (it != cache.end()) return it->second;
  return cache.emplace(size, Fft(size)).first->second;
}

Fft::Fft(std::size_t size) : size_(size), pow2_(is_power_of_two(size)) {
  if (size_ == 0) throw std::invalid_argument("Fft size must be >= 1");
  if (pow2_) {
    bit_reversal_ = make_bit_reversal(size_);
    twiddles_ = make_twiddles(size_);
    if (size_ >= 4) {
      half_ = std::make_unique<Fft>(size_ / 2);
      real_twiddles_.resize(size_ / 4 + 1);
      for (std::size_t k = 0; k <= size_ / 4; ++k) {
        const double angle =
            -kTwoPi * static_cast<double>(k) / static_cast<double>(size_);
        real_twiddles_[k] = Complex(std::cos(angle), std::sin(angle));
      }
    }
    return;
  }
  // Bluestein: x[n]*chirp[n] convolved with conj(chirp) over a power-of-two
  // length >= 2n-1, then multiplied by chirp[k].
  conv_size_ = next_power_of_two(2 * size_ - 1);
  conv_bit_reversal_ = make_bit_reversal(conv_size_);
  conv_twiddles_ = make_twiddles(conv_size_);
  chirp_.resize(size_);
  for (std::size_t n = 0; n < size_; ++n) {
    // n^2 mod 2N keeps the angle argument small for large sizes.
    const std::size_t sq = (n * n) % (2 * size_);
    const double angle =
        -std::numbers::pi * static_cast<double>(sq) / static_cast<double>(size_);
    chirp_[n] = Complex(std::cos(angle), std::sin(angle));
  }
  std::vector<Complex> kernel(conv_size_, Complex{});
  kernel[0] = std::conj(chirp_[0]);
  for (std::size_t n = 1; n < size_; ++n) {
    kernel[n] = std::conj(chirp_[n]);
    kernel[conv_size_ - n] = std::conj(chirp_[n]);
  }
  radix2(kernel, conv_bit_reversal_, conv_twiddles_, /*invert=*/false);
  chirp_spectrum_ = std::move(kernel);
}

void Fft::forward(std::span<Complex> data) const {
  assert(data.size() == size_);
  if (size_ == 1) return;
  if (pow2_) {
    radix2(data, bit_reversal_, twiddles_, /*invert=*/false);
  } else {
    transform_bluestein(data, /*invert=*/false);
  }
}

void Fft::inverse(std::span<Complex> data) const {
  assert(data.size() == size_);
  if (size_ == 1) return;
  if (pow2_) {
    radix2(data, bit_reversal_, twiddles_, /*invert=*/true);
  } else {
    transform_bluestein(data, /*invert=*/true);
  }
  const double scale = 1.0 / static_cast<double>(size_);
  for (auto& v : data) v *= scale;
}

void Fft::inverse_band(std::span<const Complex> band,
                       std::span<Complex> out) const {
  assert(out.size() == size_);
  assert(size_ >= 2 && band.size() <= size_ / 2 + 1);
  std::fill(out.begin(), out.end(), Complex{});
  // Power-of-two sizes place each bin straight into its bit-reversed slot,
  // which leaves out[] as radix2's swap pass would, and list the live
  // slots; k and size_ - k are distinct slots, so each is written once.
  std::vector<std::size_t>& live = live_list(size_);
  const auto place = [&](std::size_t k, Complex v) {
    const std::size_t slot = pow2_ ? bit_reversal_[k] : k;
    out[slot] = v;
    if (v.real() != 0.0 || v.imag() != 0.0) live.push_back(slot);
  };
  for (std::size_t k = 0; k < band.size(); ++k) {
    place(k, band[k]);
    if (k != 0 && size_ - k != k) place(size_ - k, std::conj(band[k]));
  }
  if (!pow2_) {
    inverse(out);
    return;
  }
  // A narrow band's few live slots sort fast; a wide band's come from
  // radix2's scan.
  double* d = reinterpret_cast<double*>(out.data());
  if (band.size() <= kSortedBandMax) {
    std::sort(live.begin(), live.end());
  } else {
    collect_live(d, size_, live);
  }
  run_stages(d, size_, twiddles_, live, /*invert=*/true);
  const double scale = 1.0 / static_cast<double>(size_);
  for (auto& v : out) v *= scale;
}

void Fft::transform_bluestein(std::span<Complex> data, bool invert) const {
  // The inverse transform is the conjugate of the forward transform of the
  // conjugated input (scaling applied by the caller).
  if (invert) {
    for (auto& v : data) v = std::conj(v);
  }
  std::vector<Complex> a(conv_size_, Complex{});
  for (std::size_t n = 0; n < size_; ++n) a[n] = data[n] * chirp_[n];
  radix2(a, conv_bit_reversal_, conv_twiddles_, /*invert=*/false);
  for (std::size_t i = 0; i < conv_size_; ++i) a[i] *= chirp_spectrum_[i];
  radix2(a, conv_bit_reversal_, conv_twiddles_, /*invert=*/true);
  const double scale = 1.0 / static_cast<double>(conv_size_);
  for (std::size_t k = 0; k < size_; ++k) {
    data[k] = a[k] * scale * chirp_[k];
  }
  if (invert) {
    for (auto& v : data) v = std::conj(v);
  }
}

std::vector<Complex> Fft::forward_real(std::span<const double> signal) const {
  assert(signal.size() == size_);
  if (half_ == nullptr) {
    // Odd/small/Bluestein sizes: plain complex transform.
    std::vector<Complex> data(signal.begin(), signal.end());
    forward(data);
    return data;
  }
  // Pack pairs of real samples into one complex stream, transform at half
  // length, then split the even/odd spectra and butterfly them together.
  const std::size_t h = size_ / 2;
  std::vector<Complex> packed(h);
  for (std::size_t n = 0; n < h; ++n) {
    packed[n] = Complex(signal[2 * n], signal[2 * n + 1]);
  }
  half_->forward(packed);

  std::vector<Complex> out(size_);
  auto twiddle = [&](std::size_t k) -> Complex {
    // e^{-2*pi*i*k/N} for k <= N/2, via the stored quarter table.
    if (k <= size_ / 4) return real_twiddles_[k];
    const Complex t = real_twiddles_[size_ / 2 - k];
    return Complex(-t.real(), t.imag());
  };
  for (std::size_t k = 0; k <= h / 2; ++k) {
    const Complex zk = packed[k % h];
    const Complex zmk = std::conj(packed[(h - k) % h]);
    const Complex even = 0.5 * (zk + zmk);
    const Complex odd = Complex(0, -0.5) * (zk - zmk);
    const Complex upper = even + twiddle(k) * odd;
    out[k] = upper;
    // X[N/2 + k'] values come from the second period of E + W*O; the
    // conjugate-symmetry fill below covers them.
  }
  for (std::size_t k = h / 2 + 1; k <= h; ++k) {
    const Complex zk = packed[k % h];
    const Complex zmk = std::conj(packed[(h - k) % h]);
    const Complex even = 0.5 * (zk + zmk);
    const Complex odd = Complex(0, -0.5) * (zk - zmk);
    out[k] = even + twiddle(k) * odd;
  }
  for (std::size_t k = h + 1; k < size_; ++k) {
    out[k] = std::conj(out[size_ - k]);
  }
  return out;
}

std::vector<Complex> direct_dft(std::span<const Complex> input) {
  const std::size_t n = input.size();
  std::vector<Complex> out(n, Complex{});
  for (std::size_t k = 0; k < n; ++k) {
    Complex acc{};
    for (std::size_t m = 0; m < n; ++m) {
      const double angle =
          -kTwoPi * static_cast<double>(k) * static_cast<double>(m) / static_cast<double>(n);
      acc += input[m] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<Complex> direct_dft_real(std::span<const double> input) {
  std::vector<Complex> complex_in(input.begin(), input.end());
  return direct_dft(complex_in);
}

}  // namespace dsjoin::dsp
