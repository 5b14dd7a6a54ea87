// Fast Fourier transforms.
//
// The paper uses FFTW [15]; this module is the from-scratch replacement. It
// provides an iterative radix-2 Cooley-Tukey transform with precomputed
// twiddle factors and bit-reversal permutation for power-of-two sizes, and a
// Bluestein chirp-z fallback so any window size works. A direct O(n^2) DFT
// is included as the numerical ground truth for tests and as the
// "recompute-from-scratch" baseline of Table 1.
//
// Conventions (matching Eq. 2/3 of the paper up to index origin):
//   forward:  X[k] = sum_{n=0}^{N-1} x[n] * e^{-2*pi*i*k*n/N}
//   inverse:  x[n] = (1/N) * sum_{k=0}^{N-1} X[k] * e^{+2*pi*i*k*n/N}
#pragma once

#include <complex>
#include <memory>
#include <cstddef>
#include <span>
#include <vector>

namespace dsjoin::dsp {

using Complex = std::complex<double>;

/// True iff n is a power of two (n >= 1).
constexpr bool is_power_of_two(std::size_t n) noexcept {
  return n != 0 && (n & (n - 1)) == 0;
}

/// Smallest power of two >= n.
std::size_t next_power_of_two(std::size_t n) noexcept;

/// A transform plan for one fixed size. Construction precomputes twiddle
/// tables (and, for non-power-of-two sizes, the Bluestein chirp and its
/// convolution spectrum). Power-of-two execution allocates nothing once
/// the calling thread's zero-block flags (see fft.cpp) have grown to the
/// size; Bluestein execution allocates a convolution buffer on every call.
class Fft {
 public:
  /// @param size transform length, >= 1. Any size is accepted; power-of-two
  ///             sizes take the radix-2 fast path.
  explicit Fft(std::size_t size);

  std::size_t size() const noexcept { return size_; }

  /// In-place forward transform. data.size() must equal size().
  void forward(std::span<Complex> data) const;

  /// In-place inverse transform (includes the 1/N scaling).
  void inverse(std::span<Complex> data) const;

  /// Forward transform of a real signal; returns all N complex coefficients
  /// (the conjugate-symmetric upper half included, for caller convenience).
  /// For even power-of-two sizes this runs through a half-size complex
  /// transform (the classic real-FFT packing), roughly halving the work.
  std::vector<Complex> forward_real(std::span<const double> signal) const;

  /// A cached plan for `size`, built on first use. The cache is
  /// thread-local: hot paths that transform per tuple (membership probes
  /// reconstructing a window, correlation scoring) skip the O(N log N)
  /// table setup without any cross-thread synchronization, so it is safe
  /// from the simulator's parallel node strands.
  static const Fft& plan(std::size_t size);

 private:
  void transform_bluestein(std::span<Complex> data, bool invert) const;

  std::size_t size_;
  bool pow2_;
  // Half-size plan backing the packed real transform (pow2 sizes >= 4).
  std::unique_ptr<Fft> half_;
  std::vector<Complex> real_twiddles_;  // e^{-2*pi*i*k/size_}, k <= size_/4
  // Radix-2 tables (also used by the Bluestein inner transform).
  std::vector<std::size_t> bit_reversal_;     // permutation for size_ (pow2 only)
  std::vector<Complex> twiddles_;             // e^{-2*pi*i*j/size_}, j < size_/2
  // Bluestein state (empty when pow2_).
  std::size_t conv_size_ = 0;                 // power-of-two convolution length
  std::vector<Complex> chirp_;                // e^{-pi*i*n^2/size_}
  std::vector<Complex> chirp_spectrum_;       // FFT of the padded conjugate chirp
  std::vector<std::size_t> conv_bit_reversal_;
  std::vector<Complex> conv_twiddles_;
};

/// Direct O(n^2) DFT; the ground truth used by tests and the Table 1
/// "recompute" baseline.
std::vector<Complex> direct_dft(std::span<const Complex> input);

/// Direct DFT of a real signal.
std::vector<Complex> direct_dft_real(std::span<const double> input);

}  // namespace dsjoin::dsp
