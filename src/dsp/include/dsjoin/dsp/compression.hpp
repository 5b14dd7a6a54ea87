// DFT coefficient compression and tuple-value reconstruction (Section 5.3).
//
// A node ships W/kappa low-frequency DFT coefficients; the receiver inverts
// them (Eq. 10) to an estimate x_hat of the remote window's attribute
// sequence, rounds to the integer attribute domain, and uses the rounded
// multiset for local membership tests (the DFTT algorithm). The paper's
// lossless-after-rounding criterion is E[MSE] < 0.25 (deviation < 0.5 per
// value, Eq. 11-12 and Figures 5-6).
//
// Faithfulness note (see DESIGN.md §4): Eq. 10 as printed multiplies by
// kappa and keeps k < W/kappa one-sidedly; for real signals we instead keep
// the lowest frequencies *with* their implied conjugate mirrors and scale by
// 1/W — the textbook-lossless truncation the paper's Figures 5/6 behaviour
// requires.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsjoin/dsp/fft.hpp"

namespace dsjoin::dsp {

/// A truncated spectrum: the K lowest-frequency coefficients of a length-W
/// real signal. The conjugate-symmetric upper half is implied.
struct CompressedSpectrum {
  std::uint32_t window = 0;       ///< W
  std::vector<Complex> coeffs;    ///< X[0..K-1], K <= W/2 + 1

  /// W / K, the paper's compression factor.
  double kappa() const noexcept {
    return coeffs.empty() ? 0.0
                          : static_cast<double>(window) /
                                static_cast<double>(coeffs.size());
  }
  /// Bytes this summary occupies on the wire (two f64 per coefficient).
  std::size_t wire_bytes() const noexcept { return coeffs.size() * 16; }
};

/// Number of retained coefficients for a window W and compression factor
/// kappa, clamped into [1, W/2 + 1].
std::size_t retained_for_kappa(std::size_t window, double kappa) noexcept;

/// Compresses a real signal: forward FFT, keep the W/kappa lowest
/// frequencies. `fft` must have size signal.size().
CompressedSpectrum compress(std::span<const double> signal, double kappa,
                            const Fft& fft);

/// Reconstructs all W samples from a truncated spectrum (conjugate-symmetric
/// zero-filled inverse FFT; real parts returned).
std::vector<double> reconstruct(const CompressedSpectrum& spectrum);

/// Reconstructs and rounds each sample to the nearest integer — the final
/// approximated attribute multiset of Section 5.3 — into `out`, which it
/// resizes to W. The transform runs in a per-thread buffer, so a reused
/// `out` makes the call allocation-free.
void reconstruct_rounded(const CompressedSpectrum& spectrum,
                         std::vector<std::int64_t>& out);

/// Per-sample squared reconstruction errors (Figure 5's series).
std::vector<double> squared_errors(std::span<const double> original,
                                   std::span<const double> approx);

/// Mean squared error between a signal and its reconstruction (Eq. 11 with
/// the empirical distribution of the window as P).
double mean_squared_error(std::span<const double> original,
                          std::span<const double> approx);

/// Fraction of samples reproduced exactly after rounding (deviation < 0.5).
double lossless_fraction(std::span<const double> original,
                         std::span<const double> approx);

/// Largest power-of-two kappa whose reconstruction of `signal` keeps the
/// empirical MSE below `mse_bound` (the paper's threshold is 0.25). Returns
/// 1 if even kappa = 2 violates the bound. `fft` must match signal.size().
double recommend_kappa(std::span<const double> signal, double mse_bound,
                       const Fft& fft);

// ---------------------------------------------------------------------------
// Fixed-point coefficient quantization (wire format v4).
//
// A coefficient block travels as one f64 scale plus int8/int16 mantissas:
// m = lround(v / s * Q) with Q = 127 or 32767, decoded as m * (s / Q). The
// scale is the block's max |component|, so every ratio lies in [-1, 1] and
// the absolute error per component is at most s / (2Q).
//
// Section 5.3 calls a reconstruction lossless when E[MSE] < 0.25 (every
// rounded value within 0.5). Quantization must not consume that budget:
// with independent rounding errors (uniform on +/- s/2Q, variance
// s^2/12Q^2) across K complex coefficients, each mirrored once in the
// length-W inverse transform, the added reconstruction MSE is
//   E[dx^2] = (4 / W^2) * K * 2 * s^2 / (12 Q^2) = 2 K s^2 / (3 W^2 Q^2).
// The encoder picks the narrowest width whose predicted MSE stays below
// kQuantMseBudget (a quarter of the paper's 0.25 bound) and escalates
// int8 -> int16 -> f64 otherwise, so quantization can never push a
// reconstruction that was lossless at f64 past the rounding criterion.
// ---------------------------------------------------------------------------

/// Added-MSE budget granted to quantization: a quarter of the paper's 0.25
/// lossless-after-rounding bound.
inline constexpr double kQuantMseBudget = 0.0625;

/// Mantissa magnitude for a width: 127 (int8) or 32767 (int16).
std::int32_t quant_mantissa_max(unsigned bits) noexcept;

/// Per-block scale: max |component| over real and imaginary parts.
/// All-zero blocks give 0.0; non-finite components give +inf (forcing the
/// f64 fallback in choose_quant_bits).
double quant_scale(std::span<const Complex> values) noexcept;

/// Predicted reconstruction MSE added by quantizing K retained coefficients
/// of a length-W window at the given width (see the model above).
double predicted_quant_mse(double scale, std::size_t retained,
                           std::size_t window, unsigned bits) noexcept;

/// Narrowest width in {preferred_bits, ..., 16} whose predicted added MSE
/// stays below kQuantMseBudget; 0 means "ship f64". preferred_bits of 0
/// disables quantization outright.
unsigned choose_quant_bits(double scale, std::size_t retained,
                           std::size_t window, unsigned preferred_bits) noexcept;

/// Deterministic component quantization: lround(v / scale * Q), clamped to
/// [-Q, Q]. scale == 0 encodes as 0.
std::int32_t quantize_component(double v, double scale, unsigned bits) noexcept;

/// Inverse map m * (scale / Q); exact zero for scale == 0.
double dequantize_component(std::int32_t m, double scale, unsigned bits) noexcept;

}  // namespace dsjoin::dsp
