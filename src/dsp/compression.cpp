#include "dsjoin/dsp/compression.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace dsjoin::dsp {

std::size_t retained_for_kappa(std::size_t window, double kappa) noexcept {
  if (kappa <= 1.0) return window / 2 + 1;
  auto k = static_cast<std::size_t>(static_cast<double>(window) / kappa);
  k = std::max<std::size_t>(k, 1);
  return std::min(k, window / 2 + 1);
}

CompressedSpectrum compress(std::span<const double> signal, double kappa,
                            const Fft& fft) {
  assert(fft.size() == signal.size());
  const std::size_t keep = retained_for_kappa(signal.size(), kappa);
  std::vector<Complex> full = fft.forward_real(signal);
  CompressedSpectrum out;
  out.window = static_cast<std::uint32_t>(signal.size());
  out.coeffs.assign(full.begin(), full.begin() + static_cast<std::ptrdiff_t>(keep));
  return out;
}

namespace {

// The conjugate-symmetric zero-filled inverse transform of a truncated
// spectrum, in a per-thread buffer (the plans are per-thread too) that the
// next call on this thread overwrites.
std::span<const Complex> inverse_band(const CompressedSpectrum& spectrum) {
  const std::size_t w = spectrum.window;
  assert(w >= 2);
  assert(spectrum.coeffs.size() <= w / 2 + 1);
  thread_local std::vector<Complex> full;
  full.assign(w, Complex{});
  full[0] = spectrum.coeffs.empty() ? Complex{} : spectrum.coeffs[0];
  for (std::size_t k = 1; k < spectrum.coeffs.size(); ++k) {
    full[k] = spectrum.coeffs[k];
    // Mirror; at k == w/2 (Nyquist, even w) the mirror is the same slot and
    // the coefficient of a real signal is already real.
    if (w - k != k) full[w - k] = std::conj(spectrum.coeffs[k]);
  }
  Fft::plan(w).inverse(full);
  return full;
}

}  // namespace

std::vector<double> reconstruct(const CompressedSpectrum& spectrum) {
  const std::span<const Complex> full = inverse_band(spectrum);
  std::vector<double> out(full.size());
  for (std::size_t n = 0; n < full.size(); ++n) out[n] = full[n].real();
  return out;
}

void reconstruct_rounded(const CompressedSpectrum& spectrum,
                         std::vector<std::int64_t>& out) {
  const std::span<const Complex> full = inverse_band(spectrum);
  out.resize(full.size());
  for (std::size_t n = 0; n < full.size(); ++n) {
    out[n] = static_cast<std::int64_t>(std::llround(full[n].real()));
  }
}

std::vector<double> squared_errors(std::span<const double> original,
                                   std::span<const double> approx) {
  assert(original.size() == approx.size());
  std::vector<double> out(original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    const double d = original[i] - approx[i];
    out[i] = d * d;
  }
  return out;
}

double mean_squared_error(std::span<const double> original,
                          std::span<const double> approx) {
  assert(original.size() == approx.size());
  if (original.empty()) return 0.0;
  double acc = 0.0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    const double d = original[i] - approx[i];
    acc += d * d;
  }
  return acc / static_cast<double>(original.size());
}

double lossless_fraction(std::span<const double> original,
                         std::span<const double> approx) {
  assert(original.size() == approx.size());
  if (original.empty()) return 1.0;
  std::size_t exact = 0;
  for (std::size_t i = 0; i < original.size(); ++i) {
    if (std::llround(original[i]) == std::llround(approx[i])) ++exact;
  }
  return static_cast<double>(exact) / static_cast<double>(original.size());
}

double recommend_kappa(std::span<const double> signal, double mse_bound,
                       const Fft& fft) {
  double best = 1.0;
  for (double kappa = 2.0; retained_for_kappa(signal.size(), kappa) >= 1;
       kappa *= 2.0) {
    const CompressedSpectrum cs = compress(signal, kappa, fft);
    const std::vector<double> approx = reconstruct(cs);
    if (mean_squared_error(signal, approx) < mse_bound) {
      best = kappa;
    } else {
      break;  // MSE grows monotonically with kappa for low-pass truncation
    }
    if (retained_for_kappa(signal.size(), kappa * 2.0) ==
        retained_for_kappa(signal.size(), kappa)) {
      break;  // reached the single-coefficient floor
    }
  }
  return best;
}

std::int32_t quant_mantissa_max(unsigned bits) noexcept {
  return bits == 8 ? 127 : 32767;
}

double quant_scale(std::span<const Complex> values) noexcept {
  double scale = 0.0;
  for (const Complex& v : values) {
    const double re = std::abs(v.real());
    const double im = std::abs(v.imag());
    // NaN components must poison the scale so choose_quant_bits falls back
    // to f64; max() alone would silently drop them.
    if (!(re <= scale)) scale = re;
    if (!(im <= scale)) scale = im;
    if (std::isnan(re) || std::isnan(im)) {
      return std::numeric_limits<double>::infinity();
    }
  }
  return scale;
}

double predicted_quant_mse(double scale, std::size_t retained,
                           std::size_t window, unsigned bits) noexcept {
  if (window == 0) return std::numeric_limits<double>::infinity();
  const double q = static_cast<double>(quant_mantissa_max(bits));
  const double per_coeff = scale / (static_cast<double>(window) * q);
  return 2.0 / 3.0 * static_cast<double>(retained) * per_coeff * per_coeff;
}

unsigned choose_quant_bits(double scale, std::size_t retained,
                           std::size_t window, unsigned preferred_bits) noexcept {
  if (preferred_bits == 0) return 0;
  if (!std::isfinite(scale)) return 0;
  for (unsigned bits = preferred_bits; bits <= 16; bits *= 2) {
    if (predicted_quant_mse(scale, retained, window, bits) <= kQuantMseBudget) {
      return bits;
    }
  }
  return 0;
}

std::int32_t quantize_component(double v, double scale, unsigned bits) noexcept {
  if (scale <= 0.0) return 0;
  const std::int32_t q = quant_mantissa_max(bits);
  const long m = std::lround(v / scale * static_cast<double>(q));
  return static_cast<std::int32_t>(
      std::clamp(m, static_cast<long>(-q), static_cast<long>(q)));
}

double dequantize_component(std::int32_t m, double scale, unsigned bits) noexcept {
  if (scale <= 0.0) return 0.0;
  return static_cast<double>(m) *
         (scale / static_cast<double>(quant_mantissa_max(bits)));
}

}  // namespace dsjoin::dsp
