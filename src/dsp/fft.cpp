#include "dsjoin/dsp/fft.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <map>
#include <numbers>
#include <stdexcept>

namespace dsjoin::dsp {

namespace {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

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

std::vector<Complex> make_twiddles(std::size_t n) {
  std::vector<Complex> tw(n / 2);
  for (std::size_t j = 0; j < n / 2; ++j) {
    const double angle = -kTwoPi * static_cast<double>(j) / static_cast<double>(n);
    tw[j] = Complex(std::cos(angle), std::sin(angle));
  }
  return tw;
}

// radix2's zero-block flags, one per element. Per thread rather than per
// plan: Fft::plan shares one plan per thread, and a plan may be used from
// several threads at once.
std::vector<unsigned char>& zero_flags(std::size_t n) {
  thread_local std::vector<unsigned char> flags;
  if (flags.size() < n) flags.resize(n);
  return flags;
}

// Core iterative radix-2 transform over precomputed tables; `Invert`
// negates the twiddles' imaginary parts (exact), scaling is the caller's
// responsibility.
//
// The butterfly works on the interleaved doubles (an array of
// std::complex<double> may be accessed as double[2n]). Under
// -ffp-contract=off its product performs the operations, in the order,
// that std::complex<double>::operator* evaluates for finite operands, minus
// the NaN-recovery branch (__muldc3), so finite inputs give the same bits.
//
// Zero sub-blocks: zero[s] is set while the current stage's block starting
// at s holds only exact zeros. A block whose two halves are both zero is
// skipped; a block whose odd half alone is zero gets its even half copied
// over (u +- 0*w == u). Both shortcuts change at most the sign of an exact
// zero, which never reaches a nonzero result (x +- 0 == x, 0 * w == 0).
// Band-limited spectra, a few retained bins out of W, skip most of the
// early stages. Tracking ends at the first stage without a zero block.
template <bool Invert>
void radix2(std::span<Complex> data, const std::vector<std::size_t>& rev,
            const std::vector<Complex>& twiddles) {
  const std::size_t n = data.size();
  for (std::size_t i = 0; i < n; ++i) {
    if (i < rev[i]) std::swap(data[i], data[rev[i]]);
  }
  double* d = reinterpret_cast<double*>(data.data());
  const double* tw = reinterpret_cast<const double*>(twiddles.data());
  std::vector<unsigned char>& zero = zero_flags(n);
  bool any_zero = false;
  for (std::size_t i = 0; i < n; ++i) {
    zero[i] = d[2 * i] == 0.0 && d[2 * i + 1] == 0.0;
    any_zero = any_zero || zero[i];
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const std::size_t step = n / len;  // stride into the size-n twiddle table
    const bool track = any_zero;
    any_zero = false;
    for (std::size_t start = 0; start < n; start += len) {
      double* even = d + 2 * start;
      double* odd = even + 2 * half;
      if (track) {
        if (zero[start + half]) {
          if (zero[start]) {
            any_zero = true;
          } else {
            std::copy(even, odd, odd);
          }
          continue;
        }
        zero[start] = 0;
      }
      for (std::size_t j = 0; j < half; ++j) {
        const double wr = tw[2 * j * step];
        const double wi = Invert ? -tw[2 * j * step + 1] : tw[2 * j * step + 1];
        const double xr = odd[2 * j];
        const double xi = odd[2 * j + 1];
        const double vr = xr * wr - xi * wi;
        const double vi = xr * wi + xi * wr;
        const double ur = even[2 * j];
        const double ui = even[2 * j + 1];
        even[2 * j] = ur + vr;
        even[2 * j + 1] = ui + vi;
        odd[2 * j] = ur - vr;
        odd[2 * j + 1] = ui - vi;
      }
    }
  }
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
  radix2<false>(kernel, conv_bit_reversal_, conv_twiddles_);
  chirp_spectrum_ = std::move(kernel);
}

void Fft::forward(std::span<Complex> data) const {
  assert(data.size() == size_);
  if (size_ == 1) return;
  if (pow2_) {
    radix2<false>(data, bit_reversal_, twiddles_);
  } else {
    transform_bluestein(data, /*invert=*/false);
  }
}

void Fft::inverse(std::span<Complex> data) const {
  assert(data.size() == size_);
  if (size_ == 1) return;
  if (pow2_) {
    radix2<true>(data, bit_reversal_, twiddles_);
  } else {
    transform_bluestein(data, /*invert=*/true);
  }
  const double scale = 1.0 / static_cast<double>(size_);
  for (auto& v : data) v *= scale;
}

void Fft::transform_bluestein(std::span<Complex> data, bool invert) const {
  // The inverse transform is the conjugate of the forward transform of the
  // conjugated input (scaling applied by the caller).
  if (invert) {
    for (auto& v : data) v = std::conj(v);
  }
  std::vector<Complex> a(conv_size_, Complex{});
  for (std::size_t n = 0; n < size_; ++n) a[n] = data[n] * chirp_[n];
  radix2<false>(a, conv_bit_reversal_, conv_twiddles_);
  for (std::size_t i = 0; i < conv_size_; ++i) a[i] *= chirp_spectrum_[i];
  radix2<true>(a, conv_bit_reversal_, conv_twiddles_);
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
