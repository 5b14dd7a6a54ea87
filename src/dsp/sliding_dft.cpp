#include "dsjoin/dsp/sliding_dft.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace dsjoin::dsp {

namespace {
// Phase tracking: rather than evaluating e^{-2*pi*i*k*p/W} with two trig
// calls per retained coefficient per push, each coefficient carries a unit
// phasor that is advanced by one unit step per push. Phasor magnitude drift
// is O(eps) per step; every ring wrap restores all phasors to exactly 1, and
// renormalization re-derives the table when enough incremental steps have
// accumulated (kPhaseResetSteps).

// push_batch's per-push steps as plain loops over the SoA arrays. Each
// evaluates push()'s std::complex component formulas in the same operation
// order, element by element; the build forbids FMA contraction, so the
// compiler may vectorize them without changing a bit. __restrict spares the
// vectorized loops their runtime alias checks.

// The non-wrap, delta != 0 step: accumulate with the old phasor, then rotate.
void accumulate_rotate(double* __restrict cr, double* __restrict ci,
                       double* __restrict pr, double* __restrict pi,
                       const double* __restrict ur,
                       const double* __restrict ui, std::size_t n,
                       double delta) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    cr[k] += delta * pr[k];
    ci[k] += delta * pi[k];
    const double npr = pr[k] * ur[k] - pi[k] * ui[k];
    const double npi = pr[k] * ui[k] + pi[k] * ur[k];
    pr[k] = npr;
    pi[k] = npi;
  }
}

// The ring-wrap step: phasors reset exactly afterwards, so no rotation.
void accumulate(double* __restrict cr, double* __restrict ci,
                const double* __restrict pr, const double* __restrict pi,
                std::size_t n, double delta) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    cr[k] += delta * pr[k];
    ci[k] += delta * pi[k];
  }
}

// The delta == 0, non-wrap step: the coefficients stand still.
void rotate(double* __restrict pr, double* __restrict pi,
            const double* __restrict ur, const double* __restrict ui,
            std::size_t n) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    const double npr = pr[k] * ur[k] - pi[k] * ui[k];
    const double npi = pr[k] * ui[k] + pi[k] * ur[k];
    pr[k] = npr;
    pi[k] = npi;
  }
}
}  // namespace

SlidingDft::SlidingDft(std::size_t window, std::size_t retained)
    : window_(window),
      coeff_re_(retained, 0.0),
      coeff_im_(retained, 0.0),
      phase_re_(retained, 1.0),
      phase_im_(retained, 0.0),
      step_re_(retained),
      step_im_(retained),
      last_sent_(retained, Complex{}),
      ring_(window, 0.0) {
  if (window < 2) throw std::invalid_argument("SlidingDft window must be >= 2");
  if (retained == 0 || retained > window) {
    throw std::invalid_argument("SlidingDft retained must be in [1, window]");
  }
  for (std::size_t k = 0; k < retained; ++k) {
    const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) /
                         static_cast<double>(window_);
    step_re_[k] = std::cos(angle);
    step_im_[k] = std::sin(angle);
  }
}

void SlidingDft::backfill_first(double value) {
  // Backfill: treat the window as having always held the first value.
  // Avoids the artificial zero->signal step that would otherwise dominate
  // the spectrum (and any reconstruction) until the ring fills.
  std::fill(ring_.begin(), ring_.end(), value);
  std::fill(coeff_re_.begin(), coeff_re_.end(), 0.0);
  std::fill(coeff_im_.begin(), coeff_im_.end(), 0.0);
  coeff_re_[0] = value * static_cast<double>(window_);
  sum_ = value * static_cast<double>(window_);
  sum_sq_ = value * value * static_cast<double>(window_);
  ++count_;
  ++pushes_since_drain_;
  ++ring_pos_;
  for (std::size_t k = 0; k < phase_re_.size(); ++k) {
    Complex p(phase_re_[k], phase_im_[k]);
    p *= Complex(step_re_[k], step_im_[k]);
    phase_re_[k] = p.real();
    phase_im_[k] = p.imag();
  }
  ++phase_steps_;
  view_dirty_ = true;
}

void SlidingDft::reset_phases_exact() {
  // All phasors return to 1 exactly; resetting cancels magnitude drift.
  std::fill(phase_re_.begin(), phase_re_.end(), 1.0);
  std::fill(phase_im_.begin(), phase_im_.end(), 0.0);
  phase_steps_ = 0;
}

void SlidingDft::push(double value) {
  if (count_ == 0) {
    backfill_first(value);
    return;
  }
  const double old = ring_[ring_pos_];
  ring_[ring_pos_] = value;
  const double delta = value - old;
  if (delta != 0.0) {
    // Reference scalar formulation, kept in std::complex arithmetic: the
    // per-element operations (and therefore the results) are exactly those
    // of push_batch's fused structure-of-arrays loop.
    for (std::size_t k = 0; k < coeff_re_.size(); ++k) {
      Complex c(coeff_re_[k], coeff_im_[k]);
      c += delta * Complex(phase_re_[k], phase_im_[k]);
      coeff_re_[k] = c.real();
      coeff_im_[k] = c.imag();
    }
    view_dirty_ = true;
  }
  sum_ += delta;
  sum_sq_ += value * value - old * old;
  ++count_;
  ++pushes_since_drain_;
  ++ring_pos_;
  if (ring_pos_ == window_) {
    ring_pos_ = 0;
    reset_phases_exact();
  } else {
    for (std::size_t k = 0; k < phase_re_.size(); ++k) {
      Complex p(phase_re_[k], phase_im_[k]);
      p *= Complex(step_re_[k], step_im_[k]);
      phase_re_[k] = p.real();
      phase_im_[k] = p.imag();
    }
    ++phase_steps_;
  }
  if (renormalize_interval_ != 0 && count_ % renormalize_interval_ == 0) {
    renormalize();
  }
}

void SlidingDft::push_batch(std::span<const double> values) {
  std::size_t i = 0;
  if (values.empty()) return;
  if (count_ == 0) {
    backfill_first(values[0]);
    i = 1;
  }
  const std::size_t k_count = coeff_re_.size();
  double* const cr = coeff_re_.data();
  double* const ci = coeff_im_.data();
  double* const pr = phase_re_.data();
  double* const pi = phase_im_.data();
  const double* const ur = step_re_.data();
  const double* const ui = step_im_.data();
  for (; i < values.size(); ++i) {
    const double value = values[i];
    const double old = ring_[ring_pos_];
    ring_[ring_pos_] = value;
    const double delta = value - old;
    const bool wrap = ring_pos_ + 1 == window_;
    // One pass per push over the SoA arrays, bit-identical to push()
    // (pinned by tests/core/batch_identity_test.cpp).
    if (delta != 0.0) {
      if (wrap) {
        accumulate(cr, ci, pr, pi, k_count, delta);
      } else {
        accumulate_rotate(cr, ci, pr, pi, ur, ui, k_count, delta);
      }
      view_dirty_ = true;
    } else if (!wrap) {
      rotate(pr, pi, ur, ui, k_count);
    }
    sum_ += delta;
    sum_sq_ += value * value - old * old;
    ++count_;
    ++pushes_since_drain_;
    if (wrap) {
      ring_pos_ = 0;
      reset_phases_exact();
    } else {
      ++ring_pos_;
      ++phase_steps_;
    }
    if (renormalize_interval_ != 0 && count_ % renormalize_interval_ == 0) {
      renormalize();
    }
  }
}

std::span<const Complex> SlidingDft::coefficients() const {
  if (view_dirty_) {
    coeff_view_.resize(coeff_re_.size());
    for (std::size_t k = 0; k < coeff_re_.size(); ++k) {
      coeff_view_[k] = Complex(coeff_re_[k], coeff_im_[k]);
    }
    view_dirty_ = false;
  }
  return coeff_view_;
}

double SlidingDft::mean() const noexcept {
  // The ring is value-backfilled from the first push, so all W slots are
  // meaningful as soon as count() > 0.
  if (count_ == 0) return 0.0;
  return sum_ / static_cast<double>(window_);
}

double SlidingDft::variance() const noexcept {
  if (count_ == 0) return 0.0;
  const double m = mean();
  const double var = sum_sq_ / static_cast<double>(window_) - m * m;
  return var > 0.0 ? var : 0.0;
}

void SlidingDft::renormalize() {
  std::vector<Complex> full(ring_.begin(), ring_.end());
  // Borrowed per call, never stored: the plan cache is thread-local, and a
  // plan must not outlive or leave the thread that built it.
  Fft::plan(window_).forward(full);
  for (std::size_t k = 0; k < coeff_re_.size(); ++k) {
    coeff_re_[k] = full[k].real();
    coeff_im_[k] = full[k].imag();
  }
  view_dirty_ = true;
  // Re-derive the phasor table only once enough incremental multiplies have
  // accumulated for drift to matter; below the threshold the table is
  // already exact (phase_steps_ == 0 right after a ring wrap, which is
  // where interval renormalizations land for window-aligned intervals) or
  // within ~kPhaseResetSteps * eps of exact.
  if (phase_steps_ >= kPhaseResetSteps) {
    for (std::size_t k = 0; k < phase_re_.size(); ++k) {
      const double angle = -2.0 * std::numbers::pi * static_cast<double>(k) *
                           static_cast<double>(ring_pos_) /
                           static_cast<double>(window_);
      phase_re_[k] = std::cos(angle);
      phase_im_[k] = std::sin(angle);
    }
    phase_steps_ = 0;
  }
  // The exact sums also refresh the running moments.
  double s = 0.0, sq = 0.0;
  for (double v : ring_) {
    s += v;
    sq += v * v;
  }
  sum_ = s;
  sum_sq_ = sq;
}

std::vector<CoeffDelta> SlidingDft::drain_dirty(double threshold) {
  std::vector<CoeffDelta> out;
  for (std::size_t k = 0; k < coeff_re_.size(); ++k) {
    const Complex current(coeff_re_[k], coeff_im_[k]);
    if (std::abs(current - last_sent_[k]) > threshold) {
      out.push_back(CoeffDelta{static_cast<std::uint32_t>(k), current});
      last_sent_[k] = current;
    }
  }
  pushes_since_drain_ = 0;
  return out;
}

}  // namespace dsjoin::dsp
