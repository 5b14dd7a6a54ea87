#include "dsjoin/dsp/spectrum.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/dsp/compression.hpp"

namespace dsjoin::dsp {
namespace {

std::vector<double> smooth_signal(std::size_t n, double phase,
                                  std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n);
    out[i] = 100.0 * std::sin(2 * std::numbers::pi * (3 * t) + phase) +
             40.0 * std::sin(2 * std::numbers::pi * (7 * t) + 2 * phase) +
             rng.next_double_in(-1, 1);
  }
  return out;
}

CompressedSpectrum spectrum_of(std::span<const double> signal, double kappa) {
  Fft fft(signal.size());
  return compress(signal, kappa, fft);
}

TEST(CrossPowerSpectrum, PointwiseProduct) {
  std::vector<Complex> x{{1, 2}, {3, -1}};
  std::vector<Complex> y{{2, 0}, {0, 1}};
  const auto s = cross_power_spectrum(x, y);
  EXPECT_EQ(s[0], x[0] * std::conj(y[0]));
  EXPECT_EQ(s[1], x[1] * std::conj(y[1]));
}

TEST(SpectralEnergy, ExcludesDc) {
  std::vector<Complex> x{{100, 0}, {3, 4}, {0, 2}};
  EXPECT_DOUBLE_EQ(spectral_energy(x), 25.0 + 4.0);
}

TEST(SpectralMean, ReadsDc) {
  std::vector<Complex> x{{640, 0}, {1, 1}};
  EXPECT_DOUBLE_EQ(spectral_mean(x, 64), 10.0);
  EXPECT_DOUBLE_EQ(spectral_mean({}, 64), 0.0);
}

TEST(SpectralStddev, MatchesParsevalForFullSpectrum) {
  constexpr std::size_t kN = 256;
  common::Xoshiro256 rng(1);
  std::vector<double> signal(kN);
  double mean = 0.0;
  for (auto& v : signal) {
    v = rng.next_double_in(-10, 10);
    mean += v;
  }
  mean /= kN;
  double var = 0.0;
  for (double v : signal) var += (v - mean) * (v - mean);
  var /= kN;
  Fft fft(kN);
  const auto spec = fft.forward_real(signal);
  EXPECT_NEAR(spectral_stddev(spec, kN), std::sqrt(var), 1e-9);
}

TEST(LagMaxCorrelation, IdenticalSignalsScoreOne) {
  const auto signal = smooth_signal(512, 0.3, 1);
  const auto spec = spectrum_of(signal, 16.0);
  const auto est = lag_max_correlation(spec.coeffs, spec.coeffs, 512);
  EXPECT_NEAR(est.rho, 1.0, 0.05);
  EXPECT_EQ(est.lag, 0u);
}

TEST(LagMaxCorrelation, ShiftedCopyScoresHighAtTheShift) {
  constexpr std::size_t kN = 512;
  const auto base = smooth_signal(kN, 0.0, 2);
  std::vector<double> shifted(kN);
  constexpr std::size_t kShift = 37;
  for (std::size_t i = 0; i < kN; ++i) shifted[i] = base[(i + kShift) % kN];
  const auto sa = spectrum_of(base, 16.0);
  const auto sb = spectrum_of(shifted, 16.0);
  const auto est = lag_max_correlation(sa.coeffs, sb.coeffs, kN);
  EXPECT_GT(est.rho, 0.95);
  EXPECT_EQ(est.lag, kShift);
}

TEST(LagMaxCorrelation, IndependentNoiseScoresLow) {
  constexpr std::size_t kN = 1024;
  common::Xoshiro256 rng(3);
  std::vector<double> a(kN), b(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = rng.next_double_in(-100, 100);
    b[i] = rng.next_double_in(-100, 100);
  }
  const auto sa = spectrum_of(a, 2.0);
  const auto sb = spectrum_of(b, 2.0);
  const auto est = lag_max_correlation(sa.coeffs, sb.coeffs, kN);
  // Max over lags of noise correlation concentrates around
  // sqrt(2 ln N / N) ~ 0.12 for N=1024; anything far below 1 passes.
  EXPECT_LT(est.rho, 0.35);
}

TEST(LagMaxCorrelation, EmptyEnergyReturnsZero) {
  std::vector<Complex> flat(8, Complex{});
  const auto est = lag_max_correlation(flat, flat, 64);
  EXPECT_EQ(est.rho, 0.0);
}

TEST(LagMaxCorrelation, MeanOffsetDoesNotInflate) {
  // Two constant windows at different levels: DC is excluded, so rho must
  // be ~0, not 1.
  std::vector<double> a(256, 100.0), b(256, 900.0);
  const auto sa = spectrum_of(a, 8.0);
  const auto sb = spectrum_of(b, 8.0);
  EXPECT_LT(lag_max_correlation(sa.coeffs, sb.coeffs, 256).rho, 1e-6);
}

TEST(SpectralMagnitudeCosine, IdenticalIsOne) {
  const auto s = spectrum_of(smooth_signal(256, 0.1, 4), 8.0);
  EXPECT_NEAR(spectral_magnitude_cosine(s.coeffs, s.coeffs), 1.0, 1e-12);
}

TEST(SpectralMagnitudeCosine, ShiftInvariant) {
  constexpr std::size_t kN = 256;
  const auto base = smooth_signal(kN, 0.0, 5);
  std::vector<double> shifted(kN);
  for (std::size_t i = 0; i < kN; ++i) shifted[i] = base[(i + 61) % kN];
  const auto sa = spectrum_of(base, 8.0);
  const auto sb = spectrum_of(shifted, 8.0);
  EXPECT_NEAR(spectral_magnitude_cosine(sa.coeffs, sb.coeffs), 1.0, 1e-6);
}

TEST(SpectralMagnitudeCosine, ZeroEnergyIsZero) {
  std::vector<Complex> flat(4, Complex{});
  EXPECT_EQ(spectral_magnitude_cosine(flat, flat), 0.0);
}

TEST(SpectralMagnitudeCosine, DisjointBandsScoreLow) {
  constexpr std::size_t kN = 256;
  std::vector<double> low(kN), high(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double t = static_cast<double>(i) / kN;
    low[i] = std::sin(2 * std::numbers::pi * 2 * t);
    high[i] = std::sin(2 * std::numbers::pi * 29 * t);
  }
  const auto sa = spectrum_of(low, 4.0);   // keeps 64 coefficients
  const auto sb = spectrum_of(high, 4.0);
  EXPECT_LT(spectral_magnitude_cosine(sa.coeffs, sb.coeffs), 0.05);
}

// lag_max_correlation with the plain peak search: std::abs on every lag.
CorrelationEstimate plain_lag_max_correlation(std::span<const Complex> x,
                                              std::span<const Complex> y,
                                              std::size_t window) {
  const double ex = spectral_energy(x);
  const double ey = spectral_energy(y);
  if (ex <= 0.0 || ey <= 0.0) return {};
  std::vector<Complex> full(window, Complex{});
  for (std::size_t k = 1; k < x.size(); ++k) {
    const Complex s = x[k] * std::conj(y[k]);
    full[k] = s;
    full[window - k] = std::conj(s);
  }
  Fft::plan(window).inverse(full);
  double best = 0.0;
  std::size_t best_lag = 0;
  for (std::size_t n = 0; n < window; ++n) {
    const double mag = std::abs(full[n]);
    if (mag > best) {
      best = mag;
      best_lag = n;
    }
  }
  const double rho = best * static_cast<double>(window) / std::sqrt(ex * ey);
  return CorrelationEstimate{rho < 1.0 ? rho : 1.0, best_lag};
}

// The norm prefilter skips std::abs only on lags that cannot beat the
// running peak, so rho and lag keep the plain loop's bits: random spectra
// at scales 2^-300..2^300 (subnormal norms, overflow to infinity),
// integer-valued entries (exact ties), identical inputs (mirrored ties)
// and non-finite entries, at W = 64..512.
TEST(LagMaxCorrelation, NormPrefilterKeepsThePlainLoopsBits) {
  common::Xoshiro256 rng(2024);
  std::size_t cases = 0;
  for (const std::size_t window : {64u, 128u, 256u, 512u}) {
    for (int family = 0; family < 4; ++family) {
      for (int trial = 0; trial < 150; ++trial) {
        const std::size_t k = 2 + rng.next_below(window / 2);
        const double scale =
            std::ldexp(1.0, static_cast<int>(rng.next_below(601)) - 300);
        std::vector<Complex> x(k), y(k);
        for (std::size_t i = 0; i < k; ++i) {
          if (family == 1) {
            x[i] = {static_cast<double>(rng.next_below(5)) - 2.0,
                    static_cast<double>(rng.next_below(5)) - 2.0};
            y[i] = {static_cast<double>(rng.next_below(3)) - 1.0, 0.0};
          } else {
            x[i] = {scale * rng.next_double_in(-1, 1),
                    scale * rng.next_double_in(-1, 1)};
            y[i] = {scale * rng.next_double_in(-1, 1),
                    scale * rng.next_double_in(-1, 1)};
          }
        }
        if (family == 2) y = x;
        if (family == 3) {
          const double odd[] = {std::numeric_limits<double>::infinity(),
                                -std::numeric_limits<double>::infinity(),
                                std::numeric_limits<double>::quiet_NaN()};
          x[1 + rng.next_below(k - 1)].real(odd[rng.next_below(3)]);
        }
        const auto got = lag_max_correlation(x, y, window);
        const auto want = plain_lag_max_correlation(x, y, window);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(got.rho),
                  std::bit_cast<std::uint64_t>(want.rho))
            << "W=" << window << " family " << family << " trial " << trial;
        ASSERT_EQ(got.lag, want.lag)
            << "W=" << window << " family " << family << " trial " << trial;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 2400u);
}

}  // namespace
}  // namespace dsjoin::dsp
