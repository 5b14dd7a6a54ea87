#include "dsjoin/dsp/compression.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/stream/generator.hpp"

namespace dsjoin::dsp {
namespace {

TEST(RetainedForKappa, ClampsAndScales) {
  EXPECT_EQ(retained_for_kappa(1024, 2.0), 512u);
  EXPECT_EQ(retained_for_kappa(1024, 256.0), 4u);
  EXPECT_EQ(retained_for_kappa(1024, 4096.0), 1u);     // floor at one
  EXPECT_EQ(retained_for_kappa(1024, 1.0), 513u);      // cap at W/2 + 1
  EXPECT_EQ(retained_for_kappa(1024, 0.5), 513u);
}

TEST(Compress, KeepsLowestFrequencies) {
  constexpr std::size_t kN = 64;
  std::vector<double> signal(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    signal[i] = std::sin(2 * std::numbers::pi * 2 * static_cast<double>(i) / kN);
  }
  Fft fft(kN);
  const auto cs = compress(signal, 8.0, fft);
  EXPECT_EQ(cs.window, kN);
  EXPECT_EQ(cs.coeffs.size(), 8u);
  EXPECT_DOUBLE_EQ(cs.kappa(), 8.0);
  EXPECT_EQ(cs.wire_bytes(), 8u * 16u);
  // Tone at bin 2 survives; DC ~ 0.
  EXPECT_GT(std::abs(cs.coeffs[2]), 10.0);
  EXPECT_NEAR(std::abs(cs.coeffs[0]), 0.0, 1e-9);
}

TEST(Reconstruct, BandLimitedSignalIsExact) {
  constexpr std::size_t kN = 128;
  std::vector<double> signal(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    const double t = static_cast<double>(i) / kN;
    signal[i] = 10 + 5 * std::cos(2 * std::numbers::pi * 3 * t) +
                2 * std::sin(2 * std::numbers::pi * 5 * t);
  }
  Fft fft(kN);
  // Frequencies up to 5 retained: kappa = 128/8 = 16 keeps k = 0..7.
  const auto cs = compress(signal, 16.0, fft);
  const auto approx = reconstruct(cs);
  EXPECT_LT(mean_squared_error(signal, approx), 1e-18);
  EXPECT_DOUBLE_EQ(lossless_fraction(signal, approx), 1.0);
}

TEST(Reconstruct, ConstantSignalAtAnyKappa) {
  std::vector<double> signal(256, 42.0);
  Fft fft(256);
  for (double kappa : {2.0, 16.0, 128.0}) {
    const auto approx = reconstruct(compress(signal, kappa, fft));
    EXPECT_LT(mean_squared_error(signal, approx), 1e-18) << kappa;
  }
}

TEST(Reconstruct, MseGrowsWithKappa) {
  const auto signal = stream::generate_stock_series(4096, 7);
  Fft fft(signal.size());
  double previous = -1.0;
  for (double kappa : {2.0, 8.0, 32.0, 128.0, 512.0}) {
    const auto approx = reconstruct(compress(signal, kappa, fft));
    const double mse = mean_squared_error(signal, approx);
    EXPECT_GE(mse, previous) << "kappa=" << kappa;
    previous = mse;
  }
}

TEST(Reconstruct, StockSeriesLosslessAtModerateKappa) {
  // The paper's headline claim (Figures 5-6): stock-like data reconstructs
  // within +/-0.5 per value from a small fraction of the coefficients.
  const auto signal = stream::generate_stock_series(65536, 42);
  Fft fft(signal.size());
  const auto cs = compress(signal, 256.0, fft);
  const auto approx = reconstruct(cs);
  const double mse = mean_squared_error(signal, approx);
  EXPECT_LT(mse, 2.0);  // near the paper's 0.25 criterion at kappa=256
  EXPECT_GT(lossless_fraction(signal, approx), 0.5);
  // And at a laxer compression the criterion is met outright.
  const auto approx64 = reconstruct(compress(signal, 64.0, fft));
  EXPECT_LT(mean_squared_error(signal, approx64), 0.25);
}

TEST(ReconstructRounded, RoundsToIntegers) {
  std::vector<double> signal{10, 11, 12, 13, 12, 11, 10, 11};
  Fft fft(signal.size());
  // A reused output of another size is resized, not appended to.
  std::vector<std::int64_t> rounded(3, -1);
  reconstruct_rounded(compress(signal, 1.0, fft), rounded);
  ASSERT_EQ(rounded.size(), signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) {
    EXPECT_EQ(rounded[i], static_cast<std::int64_t>(signal[i]));
  }
}

TEST(SquaredErrors, PerSampleValues) {
  std::vector<double> a{1, 2, 3};
  std::vector<double> b{1, 4, 0};
  const auto errs = squared_errors(a, b);
  EXPECT_DOUBLE_EQ(errs[0], 0.0);
  EXPECT_DOUBLE_EQ(errs[1], 4.0);
  EXPECT_DOUBLE_EQ(errs[2], 9.0);
  EXPECT_DOUBLE_EQ(mean_squared_error(a, b), 13.0 / 3.0);
}

TEST(LosslessFraction, CountsRoundedMatches) {
  std::vector<double> a{1.0, 2.0, 3.0, 4.0};
  std::vector<double> b{1.2, 2.6, 3.4, 4.0};  // rounds to 1, 3, 3, 4
  EXPECT_DOUBLE_EQ(lossless_fraction(a, b), 0.75);
}

TEST(RecommendKappa, FindsLargestSafeCompression) {
  // Band-limited signal: every kappa that keeps its band passes, so the
  // recommendation is deep.
  constexpr std::size_t kN = 1024;
  std::vector<double> signal(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    signal[i] =
        100 * std::sin(2 * std::numbers::pi * 2 * static_cast<double>(i) / kN);
  }
  Fft fft(kN);
  const double kappa = recommend_kappa(signal, 0.25, fft);
  EXPECT_GE(kappa, 128.0);

  // White noise: even kappa=2 discards half the energy and fails.
  common::Xoshiro256 rng(1);
  std::vector<double> noise(kN);
  for (auto& v : noise) v = rng.next_double_in(-100, 100);
  EXPECT_EQ(recommend_kappa(noise, 0.25, fft), 1.0);
}

TEST(Quantization, RoundTripErrorWithinHalfStep) {
  // Property: for any finite block, |dequant(quant(v)) - v| <= scale / (2Q)
  // (half a quantization step) for every component that survives clamping —
  // and scale = max |component| means nothing is ever clamped.
  common::Xoshiro256 rng(77);
  for (unsigned bits : {8u, 16u}) {
    const double q = quant_mantissa_max(bits);
    for (int trial = 0; trial < 200; ++trial) {
      const double magnitude = std::pow(10.0, rng.next_double_in(-300, 300));
      std::vector<Complex> block(16);
      for (auto& c : block) {
        c = Complex(rng.next_double_in(-magnitude, magnitude),
                    rng.next_double_in(-magnitude, magnitude));
      }
      const double scale = quant_scale(block);
      ASSERT_TRUE(std::isfinite(scale));
      const double step = scale / q;
      for (const auto& c : block) {
        for (double v : {c.real(), c.imag()}) {
          const std::int32_t m = quantize_component(v, scale, bits);
          EXPECT_LE(std::abs(m), quant_mantissa_max(bits));
          const double back = dequantize_component(m, scale, bits);
          // 1 + 1e-9 covers the rounding of v/scale*q itself at extreme
          // magnitudes; the bound is otherwise exactly half a step.
          EXPECT_LE(std::abs(back - v), 0.5 * step * (1 + 1e-9))
              << "bits=" << bits << " v=" << v << " scale=" << scale;
        }
      }
    }
  }
}

TEST(Quantization, EdgeValues) {
  // All-zero block: scale 0, everything encodes and decodes to exact zero.
  std::vector<Complex> zeros(4, Complex{});
  EXPECT_EQ(quant_scale(zeros), 0.0);
  EXPECT_EQ(quantize_component(0.0, 0.0, 16), 0);
  EXPECT_EQ(dequantize_component(0, 0.0, 16), 0.0);

  // Denormals quantize without overflow or NaN. The inverse map's
  // scale / Q underflows to zero at denorm_min, so the round trip lands on
  // zero — still within the scale-sized error bound, never a NaN or inf.
  const double denormal = std::numeric_limits<double>::denorm_min();
  std::vector<Complex> tiny{Complex(denormal, -denormal)};
  const double tiny_scale = quant_scale(tiny);
  EXPECT_EQ(tiny_scale, denormal);
  const auto m = quantize_component(denormal, tiny_scale, 8);
  EXPECT_EQ(m, quant_mantissa_max(8));
  const double back = dequantize_component(m, tiny_scale, 8);
  EXPECT_TRUE(std::isfinite(back));
  EXPECT_LE(std::abs(back - denormal), tiny_scale);

  // Huge-but-finite values stay finite through the round trip.
  const double huge = std::numeric_limits<double>::max() / 4;
  std::vector<Complex> big{Complex(huge, -huge / 3)};
  const double big_scale = quant_scale(big);
  EXPECT_TRUE(std::isfinite(big_scale));
  EXPECT_TRUE(std::isfinite(dequantize_component(
      quantize_component(-huge / 3, big_scale, 16), big_scale, 16)));

  // NaN and inf poison the scale so choose_quant_bits falls back to f64.
  std::vector<Complex> bad{Complex(1.0, std::nan(""))};
  EXPECT_TRUE(std::isinf(quant_scale(bad)));
  std::vector<Complex> infinite{Complex(std::numeric_limits<double>::infinity(), 0)};
  EXPECT_TRUE(std::isinf(quant_scale(infinite)));
  EXPECT_EQ(choose_quant_bits(quant_scale(bad), 8, 2048, 8), 0u);
}

TEST(Quantization, PredictedMseRespectsPaperBudget) {
  // At Figure 8 geometry (W=2048, K=8) the int8 budget holds scales up to
  // roughly 2.8e4; a modest coefficient block stays at int8.
  EXPECT_EQ(choose_quant_bits(/*scale=*/1e4, 8, 2048, 8), 8u);
  // Typical clipped-key DC coefficients (~key * W) exceed that and ride the
  // escalation to int16.
  EXPECT_EQ(choose_quant_bits(/*scale=*/5e5, 8, 2048, 8), 16u);
  // A scale large enough to breach the int8 budget escalates to int16...
  const double q8 = quant_mantissa_max(8), q16 = quant_mantissa_max(16);
  const double w = 2048.0;
  // solve 2 K s^2 / (3 W^2 Q^2) = budget for s at each width
  const double s8 = std::sqrt(kQuantMseBudget * 3 * w * w * q8 * q8 / (2 * 8));
  const double s16 = std::sqrt(kQuantMseBudget * 3 * w * w * q16 * q16 / (2 * 8));
  EXPECT_EQ(choose_quant_bits(s8 * 1.01, 8, 2048, 8), 16u);
  // ...and past the int16 budget falls back to f64.
  EXPECT_EQ(choose_quant_bits(s16 * 1.01, 8, 2048, 8), 0u);
  EXPECT_EQ(choose_quant_bits(s16 * 1.01, 8, 2048, 16), 0u);
  // preferred_bits == 0 disables quantization outright.
  EXPECT_EQ(choose_quant_bits(1.0, 8, 2048, 0), 0u);
  // The added MSE prediction at the escalation boundary matches the model.
  EXPECT_NEAR(predicted_quant_mse(s8, 8, 2048, 8), kQuantMseBudget, 1e-12);
}

TEST(Quantization, QuantizedReconstructionStaysWithinMseBudget) {
  // End-to-end Section 5.3 property: quantizing the retained coefficients
  // at the width choose_quant_bits picks adds at most kQuantMseBudget of
  // reconstruction MSE in expectation — worst case 3x that (uniform
  // rounding error has variance step^2/12, worst square step^2/4) — so a
  // signal whose f64-truncated reconstruction is well inside the paper's
  // E[MSE] < 0.25 bound stays inside it after quantization.
  constexpr std::size_t kN = 2048;
  std::vector<double> signal(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    signal[i] = 1000 + 400 * std::sin(2 * std::numbers::pi * 2 *
                                      static_cast<double>(i) / kN);
  }
  Fft fft(kN);
  CompressedSpectrum spectrum = compress(signal, 256.0, fft);
  const double f64_mse = mean_squared_error(signal, reconstruct(spectrum));
  ASSERT_LT(f64_mse, 1e-12);  // band-limited: truncation is exact

  const double scale = quant_scale(spectrum.coeffs);
  const unsigned bits =
      choose_quant_bits(scale, spectrum.coeffs.size(), kN, 8);
  ASSERT_NE(bits, 0u);
  const double predicted = predicted_quant_mse(scale, spectrum.coeffs.size(),
                                               kN, bits);
  EXPECT_LE(predicted, kQuantMseBudget);
  for (auto& c : spectrum.coeffs) {
    c = Complex(dequantize_component(quantize_component(c.real(), scale, bits),
                                     scale, bits),
                dequantize_component(quantize_component(c.imag(), scale, bits),
                                     scale, bits));
  }
  const auto approx = reconstruct(spectrum);
  const double quant_mse = mean_squared_error(signal, approx);
  EXPECT_LE(quant_mse, f64_mse + 3 * kQuantMseBudget);  // hard worst case
  EXPECT_LT(quant_mse, 0.25);                           // the paper's bound
  EXPECT_GT(lossless_fraction(signal, approx), 0.95);
}

TEST(Reconstruct, OddWindowSizeWorks) {
  constexpr std::size_t kN = 100;
  std::vector<double> signal(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    signal[i] = 5 + std::sin(2 * std::numbers::pi * 3 * static_cast<double>(i) / kN);
  }
  Fft fft(kN);
  const auto approx = reconstruct(compress(signal, 10.0, fft));
  EXPECT_LT(mean_squared_error(signal, approx), 1e-12);
}

}  // namespace
}  // namespace dsjoin::dsp
