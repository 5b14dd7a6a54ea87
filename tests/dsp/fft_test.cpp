#include "dsjoin/dsp/fft.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numbers>
#include <string>
#include <utility>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/common/simd.hpp"

namespace dsjoin::dsp {
namespace {

std::vector<Complex> random_signal(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<Complex> out(n);
  for (auto& v : out) {
    v = Complex(rng.next_double_in(-10, 10), rng.next_double_in(-10, 10));
  }
  return out;
}

double max_abs_diff(std::span<const Complex> a, std::span<const Complex> b) {
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    worst = std::max(worst, std::abs(a[i] - b[i]));
  }
  return worst;
}

TEST(NextPowerOfTwo, Values) {
  EXPECT_EQ(next_power_of_two(1), 1u);
  EXPECT_EQ(next_power_of_two(2), 2u);
  EXPECT_EQ(next_power_of_two(3), 4u);
  EXPECT_EQ(next_power_of_two(1000), 1024u);
  EXPECT_EQ(next_power_of_two(1024), 1024u);
}

TEST(IsPowerOfTwo, Values) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(2));
  EXPECT_TRUE(is_power_of_two(4096));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(3));
  EXPECT_FALSE(is_power_of_two(4097));
}

TEST(Fft, SizeZeroThrows) { EXPECT_THROW(Fft(0), std::invalid_argument); }

TEST(Fft, SizeOneIsIdentity) {
  Fft fft(1);
  std::vector<Complex> data{Complex(3, 4)};
  fft.forward(data);
  EXPECT_EQ(data[0], Complex(3, 4));
  fft.inverse(data);
  EXPECT_EQ(data[0], Complex(3, 4));
}

TEST(Fft, ImpulseHasFlatSpectrum) {
  Fft fft(8);
  std::vector<Complex> data(8, Complex{});
  data[0] = Complex(1, 0);
  fft.forward(data);
  for (const auto& v : data) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantSignalIsDcOnly) {
  Fft fft(16);
  std::vector<Complex> data(16, Complex(2.0, 0.0));
  fft.forward(data);
  EXPECT_NEAR(data[0].real(), 32.0, 1e-10);
  for (std::size_t k = 1; k < 16; ++k) {
    EXPECT_NEAR(std::abs(data[k]), 0.0, 1e-10) << "k=" << k;
  }
}

TEST(Fft, SingleToneLandsInOneBin) {
  constexpr std::size_t kN = 64;
  Fft fft(kN);
  std::vector<Complex> data(kN);
  for (std::size_t n = 0; n < kN; ++n) {
    const double angle = 2.0 * std::numbers::pi * 5.0 * static_cast<double>(n) / kN;
    data[n] = Complex(std::cos(angle), 0.0);
  }
  fft.forward(data);
  // cos splits into bins 5 and N-5, each of magnitude N/2.
  EXPECT_NEAR(std::abs(data[5]), kN / 2.0, 1e-9);
  EXPECT_NEAR(std::abs(data[kN - 5]), kN / 2.0, 1e-9);
  for (std::size_t k = 0; k < kN; ++k) {
    if (k != 5 && k != kN - 5) {
      EXPECT_NEAR(std::abs(data[k]), 0.0, 1e-9) << "k=" << k;
    }
  }
}

// Forward transform must agree with the direct O(n^2) definition for both
// power-of-two (radix-2 path) and arbitrary (Bluestein path) sizes.
class FftAgreementTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftAgreementTest, MatchesDirectDft) {
  const std::size_t n = GetParam();
  auto signal = random_signal(n, 1000 + n);
  const auto expected = direct_dft(signal);
  Fft fft(n);
  auto actual = signal;
  fft.forward(actual);
  EXPECT_LT(max_abs_diff(actual, expected), 1e-6 * static_cast<double>(n))
      << "n=" << n;
}

TEST_P(FftAgreementTest, RoundTripRecoversSignal) {
  const std::size_t n = GetParam();
  const auto signal = random_signal(n, 2000 + n);
  Fft fft(n);
  auto data = signal;
  fft.forward(data);
  fft.inverse(data);
  EXPECT_LT(max_abs_diff(data, signal), 1e-9 * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftAgreementTest,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 12, 16, 31, 32, 100,
                                           128, 255, 256, 1000, 1024));

TEST(Fft, LinearityHolds) {
  constexpr std::size_t kN = 128;
  auto a = random_signal(kN, 1);
  auto b = random_signal(kN, 2);
  std::vector<Complex> combo(kN);
  const Complex alpha(2.0, -1.0), beta(0.5, 3.0);
  for (std::size_t i = 0; i < kN; ++i) combo[i] = alpha * a[i] + beta * b[i];
  Fft fft(kN);
  fft.forward(a);
  fft.forward(b);
  fft.forward(combo);
  for (std::size_t k = 0; k < kN; ++k) {
    EXPECT_LT(std::abs(combo[k] - (alpha * a[k] + beta * b[k])), 1e-8);
  }
}

TEST(Fft, ParsevalHolds) {
  constexpr std::size_t kN = 256;
  auto signal = random_signal(kN, 3);
  double time_energy = 0.0;
  for (const auto& v : signal) time_energy += std::norm(v);
  Fft fft(kN);
  fft.forward(signal);
  double freq_energy = 0.0;
  for (const auto& v : signal) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / kN, time_energy, 1e-6 * time_energy);
}

TEST(Fft, RealSignalHasConjugateSymmetry) {
  constexpr std::size_t kN = 64;
  common::Xoshiro256 rng(4);
  std::vector<double> signal(kN);
  for (auto& v : signal) v = rng.next_double_in(-5, 5);
  Fft fft(kN);
  const auto spectrum = fft.forward_real(signal);
  for (std::size_t k = 1; k < kN; ++k) {
    EXPECT_LT(std::abs(spectrum[k] - std::conj(spectrum[kN - k])), 1e-9);
  }
}

// The packed half-size real transform must agree exactly with the complex
// path at every power-of-two size (and fall back correctly elsewhere).
class RealFftTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RealFftTest, PackedPathMatchesComplexPath) {
  const std::size_t n = GetParam();
  common::Xoshiro256 rng(900 + n);
  std::vector<double> signal(n);
  for (auto& v : signal) v = rng.next_double_in(-1000, 1000);
  Fft fft(n);
  const auto packed = fft.forward_real(signal);
  std::vector<Complex> reference(signal.begin(), signal.end());
  fft.forward(reference);
  ASSERT_EQ(packed.size(), reference.size());
  double scale = 0.0;
  for (const auto& v : reference) scale = std::max(scale, std::abs(v));
  for (std::size_t k = 0; k < n; ++k) {
    EXPECT_LT(std::abs(packed[k] - reference[k]), 1e-9 * (scale + 1.0))
        << "n=" << n << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RealFftTest,
                         ::testing::Values(1, 2, 4, 8, 16, 64, 100, 256, 255,
                                           1024, 4096));

TEST(DirectDft, RealWrapperMatchesComplex) {
  std::vector<double> real{1, 2, 3, 4, 5};
  std::vector<Complex> complex_in(real.begin(), real.end());
  const auto a = direct_dft_real(real);
  const auto b = direct_dft(complex_in);
  EXPECT_LT(max_abs_diff(a, b), 1e-12);
}

// The pre-change transform, kept as the bit-exact reference for the
// production kernel: the radix-2 butterfly in std::complex arithmetic with
// every block computed, the same twiddle, bit-reversal and Bluestein
// tables, and Fft::inverse's 1/N scaling.
namespace reference {

constexpr double kTwoPi = 2.0 * std::numbers::pi;

std::vector<std::size_t> bit_reversal(std::size_t n) {
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  std::vector<std::size_t> rev(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t b = 0; b < bits; ++b) {
      if (i & (std::size_t{1} << b)) rev[i] |= std::size_t{1} << (bits - 1 - b);
    }
  }
  return rev;
}

std::vector<Complex> twiddles(std::size_t n) {
  std::vector<Complex> tw(n / 2);
  for (std::size_t j = 0; j < n / 2; ++j) {
    const double angle = -kTwoPi * static_cast<double>(j) / static_cast<double>(n);
    tw[j] = Complex(std::cos(angle), std::sin(angle));
  }
  return tw;
}

void radix2(std::vector<Complex>& data, bool invert) {
  const std::size_t n = data.size();
  const auto rev = bit_reversal(n);
  const auto tw = twiddles(n);
  for (std::size_t i = 0; i < n; ++i) {
    if (i < rev[i]) std::swap(data[i], data[rev[i]]);
  }
  for (std::size_t len = 2; len <= n; len <<= 1) {
    const std::size_t half = len >> 1;
    const std::size_t step = n / len;
    for (std::size_t start = 0; start < n; start += len) {
      for (std::size_t j = 0; j < half; ++j) {
        Complex w = tw[j * step];
        if (invert) w = std::conj(w);
        const Complex u = data[start + j];
        const Complex v = data[start + j + half] * w;
        data[start + j] = u + v;
        data[start + j + half] = u - v;
      }
    }
  }
}

void bluestein(std::vector<Complex>& data, bool invert) {
  const std::size_t size = data.size();
  const std::size_t conv = next_power_of_two(2 * size - 1);
  std::vector<Complex> chirp(size);
  for (std::size_t n = 0; n < size; ++n) {
    const std::size_t sq = (n * n) % (2 * size);
    const double angle =
        -std::numbers::pi * static_cast<double>(sq) / static_cast<double>(size);
    chirp[n] = Complex(std::cos(angle), std::sin(angle));
  }
  std::vector<Complex> kernel(conv, Complex{});
  kernel[0] = std::conj(chirp[0]);
  for (std::size_t n = 1; n < size; ++n) {
    kernel[n] = std::conj(chirp[n]);
    kernel[conv - n] = std::conj(chirp[n]);
  }
  radix2(kernel, false);
  if (invert) {
    for (auto& v : data) v = std::conj(v);
  }
  std::vector<Complex> a(conv, Complex{});
  for (std::size_t n = 0; n < size; ++n) a[n] = data[n] * chirp[n];
  radix2(a, false);
  for (std::size_t i = 0; i < conv; ++i) a[i] *= kernel[i];
  radix2(a, true);
  const double scale = 1.0 / static_cast<double>(conv);
  for (std::size_t k = 0; k < size; ++k) data[k] = a[k] * scale * chirp[k];
  if (invert) {
    for (auto& v : data) v = std::conj(v);
  }
}

std::vector<Complex> transform(std::vector<Complex> data, bool invert) {
  if (is_power_of_two(data.size())) {
    radix2(data, invert);
  } else {
    bluestein(data, invert);
  }
  if (invert) {
    const double scale = 1.0 / static_cast<double>(data.size());
    for (auto& v : data) v *= scale;
  }
  return data;
}

}  // namespace reference

// Spectrum of K retained bins plus their conjugate mirrors (DFTT's
// band-limited reconstruction input); K is clamped to n/2 + 1.
std::vector<Complex> band_limited(std::size_t n, std::size_t k,
                                  std::uint64_t seed) {
  const std::size_t kept = std::min(k, n / 2 + 1);
  std::vector<Complex> out(n, Complex{});
  const auto bins = random_signal(kept, seed);
  out[0] = Complex(bins[0].real(), 0.0);
  for (std::size_t i = 1; i < kept; ++i) {
    out[i] = bins[i];
    if (n - i != i) out[n - i] = std::conj(bins[i]);
  }
  return out;
}

// Number of components that differ from `want` in their bits while at
// least one side is nonzero; only the sign of an exact zero may differ.
std::size_t nonzero_bit_mismatches(std::span<const Complex> got,
                                   std::span<const Complex> want,
                                   std::string& first) {
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double g[2] = {got[i].real(), got[i].imag()};
    const double w[2] = {want[i].real(), want[i].imag()};
    for (int c = 0; c < 2; ++c) {
      if (g[c] == 0.0 && w[c] == 0.0) continue;
      if (std::memcmp(&g[c], &w[c], sizeof(double)) != 0) {
        if (mismatches++ == 0) {
          char buf[96];
          std::snprintf(buf, sizeof buf, "index %zu component %d: %a vs %a",
                        i, c, g[c], w[c]);
          first = buf;
        }
      }
    }
  }
  return mismatches;
}

// The Hermitian spectrum Fft::inverse_band documents: band[k] at k and,
// for 0 < k < n - k, conj(band[k]) at n - k.
std::vector<Complex> hermitian_fill(std::span<const Complex> band,
                                    std::size_t n) {
  std::vector<Complex> out(n, Complex{});
  for (std::size_t k = 0; k < band.size(); ++k) {
    out[k] = band[k];
    if (k != 0 && n - k != k) out[n - k] = std::conj(band[k]);
  }
  return out;
}

// Every dispatch level up to the detected one; forcing a tier this
// architecture lacks (kNeon on x86) falls back to scalar.
std::vector<common::simd::Level> supported_levels() {
  using common::simd::Level;
  std::vector<Level> out;
  for (const Level level :
       {Level::kScalar, Level::kNeon, Level::kAvx2, Level::kAvx512}) {
    if (level <= common::simd::detected_level()) out.push_back(level);
  }
  return out;
}

class KernelBitIdentityTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelBitIdentityTest, MatchesStdComplexKernelWhereNonzero) {
  const std::size_t n = GetParam();
  std::vector<std::pair<std::string, std::vector<Complex>>> inputs;
  inputs.emplace_back("dense", random_signal(n, 3000 + n));
  for (std::size_t k : {1, 8, 32}) {
    inputs.emplace_back("band K=" + std::to_string(k),
                        band_limited(n, k, 4000 + n + k));
  }
  std::vector<Complex> impulse(n, Complex{});
  impulse[n / 3] = Complex(1.5, -0.25);
  inputs.emplace_back("impulse", impulse);
  inputs.emplace_back("zero", std::vector<Complex>(n, Complex{}));

  // Fft::inverse_band's bands: K low bins, the full half spectrum with a
  // complex Nyquist bin, and exact signed zeros among nonzero bins.
  std::vector<std::pair<std::string, std::vector<Complex>>> bands;
  for (std::size_t k : {std::size_t{1}, std::size_t{8}, std::size_t{32},
                        n / 2 + 1}) {
    if (k > n / 2 + 1) continue;
    bands.emplace_back("K=" + std::to_string(k), random_signal(k, 5000 + n + k));
  }
  auto nyquist = random_signal(n / 2 + 1, 6000 + n);
  nyquist.back() = Complex(-2.75, 0.5);
  bands.emplace_back("nyquist", nyquist);
  auto zeros = random_signal(std::min<std::size_t>(9, n / 2 + 1), 7000 + n);
  for (std::size_t k = 0; k < zeros.size(); k += 2) {
    zeros[k] = k % 4 == 0 ? Complex(-0.0, 0.0) : Complex(0.0, -0.0);
  }
  bands.emplace_back("signed zeros", zeros);

  const Fft& fft = Fft::plan(n);
  for (const common::simd::Level level : supported_levels()) {
    common::simd::force_level(level);
    const char* level_name = common::simd::level_name(level);
    for (const auto& [name, input] : inputs) {
      for (bool invert : {false, true}) {
        auto got = input;
        if (invert) {
          fft.inverse(got);
        } else {
          fft.forward(got);
        }
        const auto want = reference::transform(input, invert);
        std::string first;
        EXPECT_EQ(nonzero_bit_mismatches(got, want, first), 0u)
            << level_name << " n=" << n << " " << name
            << (invert ? " inverse" : " forward") << ", first at " << first;
      }
    }
    for (const auto& [name, band] : bands) {
      std::vector<Complex> got(n, Complex(9.0, 9.0));
      fft.inverse_band(band, got);
      const auto want = reference::transform(hermitian_fill(band, n), true);
      std::string first;
      EXPECT_EQ(nonzero_bit_mismatches(got, want, first), 0u)
          << level_name << " n=" << n << " inverse_band " << name
          << ", first at " << first;
    }
    common::simd::reset_level();
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, KernelBitIdentityTest,
                         ::testing::Values(2, 4, 8, 16, 32, 64, 128, 256, 512,
                                           1024, 2048, 4096, 1000, 2049));

TEST(Fft, LargeSizeIsAccurate) {
  constexpr std::size_t kN = 1 << 14;
  auto signal = random_signal(kN, 5);
  Fft fft(kN);
  auto data = signal;
  fft.forward(data);
  fft.inverse(data);
  EXPECT_LT(max_abs_diff(data, signal), 1e-8);
}

}  // namespace
}  // namespace dsjoin::dsp
