#include "dsjoin/dsp/spectrum.hpp"

#include <cassert>
#include <cmath>

namespace dsjoin::dsp {

std::vector<Complex> cross_power_spectrum(std::span<const Complex> x,
                                          std::span<const Complex> y) {
  assert(x.size() == y.size());
  std::vector<Complex> s(x.size());
  for (std::size_t k = 0; k < x.size(); ++k) {
    s[k] = x[k] * std::conj(y[k]);
  }
  return s;
}

double spectral_energy(std::span<const Complex> x) {
  double e = 0.0;
  for (std::size_t k = 1; k < x.size(); ++k) {
    e += std::norm(x[k]);
  }
  return e;
}

CorrelationEstimate lag_max_correlation(std::span<const Complex> x,
                                        std::span<const Complex> y,
                                        std::size_t window) {
  assert(x.size() == y.size());
  assert(x.size() <= window / 2 + 1);
  const double ex = spectral_energy(x);
  const double ey = spectral_energy(y);
  if (ex <= 0.0 || ey <= 0.0) return {};

  // Inverse-transform the conjugate-symmetric cross spectrum of the two
  // real signals with DC suppressed: r[n] is the circular cross-correlation
  // of the mean-removed low-passed signals. A Nyquist bin (x.size() ==
  // window/2 + 1, even window) holds conj(s), as a fill that writes each
  // mirror after its bin leaves there. The buffers are per-thread, like the
  // plan.
  thread_local std::vector<Complex> band;
  thread_local std::vector<Complex> full;
  band.resize(x.size());
  band[0] = Complex{};
  for (std::size_t k = 1; k < x.size(); ++k) band[k] = x[k] * std::conj(y[k]);
  if (2 * (x.size() - 1) == window) band.back() = std::conj(band.back());
  full.resize(window);
  Fft::plan(window).inverse_band(band, full);

  // The lag of the largest |r[n]|, the first on ties. std::abs is a libm
  // hypot call, so a lag whose norm re^2 + im^2 is below `cutoff` skips it:
  // the rounded norm is within 4 ulp of |r[n]|^2, so such a lag cannot
  // reach best, and best and best_lag keep the plain loop's bits. The
  // cutoff stays 0 (no lag skips) unless best^2 is a normal number, and a
  // NaN norm never compares below it.
  double best = 0.0;
  double cutoff = 0.0;
  std::size_t best_lag = 0;
  for (std::size_t n = 0; n < window; ++n) {
    const double re = full[n].real();
    const double im = full[n].imag();
    if (re * re + im * im < cutoff) continue;
    const double mag = std::abs(full[n]);
    if (mag > best) {
      best = mag;
      best_lag = n;
      cutoff = best > 0x1p-400 && best < 0x1p400 ? best * best * (1.0 - 1e-9)
                                                  : 0.0;
    }
  }
  // full[] carries a 1/W from the inverse transform; r_xy's natural
  // normalization against sqrt(sigma_x*sigma_y) uses the same convention on
  // both sides, so scale back by W before normalizing by the energies.
  const double rho = best * static_cast<double>(window) / std::sqrt(ex * ey);
  return CorrelationEstimate{rho < 1.0 ? rho : 1.0, best_lag};
}

double spectral_mean(std::span<const Complex> x, std::size_t window) noexcept {
  if (x.empty() || window == 0) return 0.0;
  return x[0].real() / static_cast<double>(window);
}

double spectral_stddev(std::span<const Complex> x, std::size_t window) noexcept {
  if (window == 0) return 0.0;
  return std::sqrt(spectral_energy(x)) / static_cast<double>(window);
}

double spectral_magnitude_cosine(std::span<const Complex> x,
                                 std::span<const Complex> y) {
  assert(x.size() == y.size());
  double dot = 0.0, nx = 0.0, ny = 0.0;
  for (std::size_t k = 1; k < x.size(); ++k) {
    const double a = std::abs(x[k]);
    const double b = std::abs(y[k]);
    dot += a * b;
    nx += a * a;
    ny += b * b;
  }
  if (nx <= 0.0 || ny <= 0.0) return 0.0;
  return dot / std::sqrt(nx * ny);
}

}  // namespace dsjoin::dsp
