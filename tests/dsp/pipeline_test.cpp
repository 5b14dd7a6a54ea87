// Integration of the DSP pieces exactly as the DFTT pipeline composes them:
// sliding DFT -> (wire) -> CompressedSpectrum -> reconstruction/membership,
// and sliding DFT -> lag-max correlation. Verifies the end-to-end numeric
// path the routing policies depend on, independent of the network.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/dsp/compression.hpp"
#include "dsjoin/dsp/sliding_dft.hpp"
#include "dsjoin/dsp/spectrum.hpp"

namespace dsjoin::dsp {
namespace {

std::vector<double> band_limited(std::size_t n, double phase, double level) {
  std::vector<double> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(n);
    out[i] = level + 300 * std::sin(2 * std::numbers::pi * 2 * t + phase) +
             120 * std::sin(2 * std::numbers::pi * 5 * t + 2 * phase);
  }
  return out;
}

TEST(DspPipeline, SlidingCoefficientsReconstructTheWindow) {
  constexpr std::size_t kW = 512;
  constexpr std::size_t kRetained = 8;  // covers frequencies 0..7
  SlidingDft dft(kW, kRetained);
  const auto signal = band_limited(kW, 0.4, 5000.0);
  // Push two windows' worth so the ring has fully turned over.
  for (int pass = 0; pass < 2; ++pass) {
    for (double v : signal) dft.push(v);
  }
  CompressedSpectrum spectrum;
  spectrum.window = kW;
  spectrum.coeffs.assign(dft.coefficients().begin(), dft.coefficients().end());
  const auto approx = reconstruct(spectrum);
  // Ring order is a circular shift of arrival order: compare multisets via
  // sorted values.
  std::vector<double> a = signal, b = approx;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double worst = 0.0;
  for (std::size_t i = 0; i < kW; ++i) worst = std::max(worst, std::abs(a[i] - b[i]));
  EXPECT_LT(worst, 0.5);  // lossless after rounding
}

TEST(DspPipeline, MembershipSurvivesTheRingShift) {
  constexpr std::size_t kW = 256;
  SlidingDft dft(kW, kW / 2 + 1);
  common::Xoshiro256 rng(1);
  std::vector<double> window;
  for (std::size_t i = 0; i < kW * 3; ++i) {
    const double v = 1000.0 + static_cast<double>(rng.next_below(8)) * 16.0;
    dft.push(v);
    window.push_back(v);
  }
  window.erase(window.begin(), window.end() - kW);  // live window, arrival order
  CompressedSpectrum spectrum;
  spectrum.window = kW;
  spectrum.coeffs.assign(dft.coefficients().begin(), dft.coefficients().end());
  std::vector<std::int64_t> rounded;
  reconstruct_rounded(spectrum, rounded);
  // Every value of the live window appears in the reconstruction with the
  // right multiplicity (full spectrum retained => exact multiset).
  std::map<std::int64_t, int> expected, got;
  for (double v : window) ++expected[static_cast<std::int64_t>(std::llround(v))];
  for (std::int64_t v : rounded) ++got[v];
  EXPECT_EQ(expected, got);
}

TEST(DspPipeline, CorrelationFromSlidingCoefficients) {
  constexpr std::size_t kW = 512;
  constexpr std::size_t kRetained = 12;
  SlidingDft a(kW, kRetained), b(kW, kRetained), c(kW, kRetained);
  const auto base = band_limited(kW * 2, 0.0, 2000.0);
  common::Xoshiro256 rng(2);
  for (std::size_t i = 0; i < kW * 2; ++i) {
    a.push(base[i] + rng.next_double_in(-5, 5));
    // b sees the same signal 37 samples later: correlated, shifted.
    b.push(base[(i + 37) % (kW * 2)] + rng.next_double_in(-5, 5));
    // c is unrelated noise around a different level.
    c.push(90000.0 + rng.next_double_in(-400, 400));
  }
  const auto rho_ab =
      lag_max_correlation(a.coefficients(), b.coefficients(), kW).rho;
  EXPECT_GT(rho_ab, 0.9);  // lagged copies correlate strongly

  // Documented saturation (DESIGN.md adaptation 2): the lag search also
  // scores *unrelated* smooth low-passed windows highly, so rho alone does
  // not discriminate here...
  const auto rho_ac =
      lag_max_correlation(a.coefficients(), c.coefficients(), kW).rho;
  EXPECT_GT(rho_ac, 0.3);
  // ...and the discriminating signal the policies multiply in is the DC
  // distance: a and b sit in the same value band, c far away.
  const double mu_a = spectral_mean(a.coefficients(), kW);
  const double mu_b = spectral_mean(b.coefficients(), kW);
  const double mu_c = spectral_mean(c.coefficients(), kW);
  EXPECT_LT(std::abs(mu_a - mu_b), 50.0);
  EXPECT_GT(std::abs(mu_a - mu_c), 50000.0);
}

TEST(DspPipeline, RenormalizationIsInvisibleDownstream) {
  constexpr std::size_t kW = 256;
  SlidingDft with(kW, 16), without(kW, 16);
  with.set_renormalize_interval(64);
  common::Xoshiro256 rng(3);
  for (int i = 0; i < 5000; ++i) {
    const double v = rng.next_double_in(0, 1000);
    with.push(v);
    without.push(v);
  }
  for (std::size_t k = 0; k < 16; ++k) {
    EXPECT_LT(std::abs(with.coefficients()[k] - without.coefficients()[k]), 1e-4);
  }
}

}  // namespace
}  // namespace dsjoin::dsp
