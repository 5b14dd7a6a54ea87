// Incrementally maintained DFT over a sliding window (the paper's "iDFT").
//
// The paper (Section 4, citing Bailey-Swarztrauber [4]) maintains the DFT
// coefficients of the last W joining-attribute values incrementally, at
// constant cost per retained coefficient per tuple. A periodic full
// recomputation (renormalize()) flushes accumulated floating-point drift.
//
// Formulation. We maintain the DFT of the window in *ring-buffer order*:
// when the arriving value x_new replaces the value x_old stored at buffer
// slot p,
//     X[k] += (x_new - x_old) * e^{-2*pi*i*k*p/W}        for each retained k.
// The maintained spectrum equals the true (arrival-ordered) window spectrum
// up to a circular time shift. A circular shift changes neither coefficient
// magnitudes (what the correlation filter consumes) nor the multiset of
// values produced by inverse reconstruction (what DFTT's membership test
// consumes), and avoids the per-step phase rotation of the classic sliding
// DFT — so no rotation error accumulates on top of the update error.
//
// Storage. Coefficients and phasors live in structure-of-arrays form
// (separate real/imag double arrays). The scalar push() is the reference
// formulation — one tuple at a time, written with std::complex arithmetic
// exactly as the paper states it — while push_batch(), the production lane,
// runs the identical update sequence as plain loops over the double arrays,
// which the compiler may vectorize (no hand-written kernel: at the retained
// sizes the workloads run, the portable loop is as fast). Both paths produce
// bit-identical coefficients (enforced by tests); see DESIGN.md
// "Performance".
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "dsjoin/dsp/fft.hpp"

namespace dsjoin::dsp {

/// One coefficient update, as shipped to remote nodes (piggybacked on tuple
/// messages; see Figure 7 lines 1-2 and 5 of the paper).
struct CoeffDelta {
  std::uint32_t index;  ///< coefficient index k
  Complex value;        ///< new absolute value of X[k]
};

/// Sliding-window DFT with a retained low-frequency coefficient subset.
class SlidingDft {
 public:
  /// @param window    W, the number of values the window holds (>= 2).
  /// @param retained  K, how many low-frequency coefficients (k = 0..K-1)
  ///                  are maintained; K <= W. The effective compression
  ///                  factor is kappa = W / K.
  SlidingDft(std::size_t window, std::size_t retained);

  /// Feeds one attribute value. Before the window fills this accumulates;
  /// afterwards it replaces the oldest value. O(K). This is the scalar
  /// reference path; push_batch() is the vectorized equivalent.
  void push(double value);

  /// Feeds a batch of attribute values, equivalent to calling push() on
  /// each element in order — bit-identical coefficients, moments and
  /// renormalization schedule — but with the per-coefficient delta
  /// accumulation and phasor advance fused into one auto-vectorizable pass
  /// over the structure-of-arrays store.
  void push_batch(std::span<const double> values);

  /// Total number of values pushed so far.
  std::uint64_t count() const noexcept { return count_; }
  /// True once W values have been pushed.
  bool full() const noexcept { return count_ >= window_; }

  std::size_t window() const noexcept { return window_; }
  std::size_t retained() const noexcept { return coeff_re_.size(); }
  /// W / K, the paper's compression factor kappa.
  double kappa() const noexcept {
    return static_cast<double>(window_) / static_cast<double>(retained());
  }

  /// The maintained coefficients X[0..K-1] (ring-buffer-order spectrum).
  /// The interleaved view is materialized lazily from the SoA store.
  std::span<const Complex> coefficients() const;

  /// Current window contents in ring-buffer slot order.
  std::span<const double> window_values() const noexcept { return ring_; }

  /// Mean of the values currently in the window (incrementally maintained).
  double mean() const noexcept;
  /// Population variance of the window values (incrementally maintained).
  double variance() const noexcept;

  /// Exactly recomputes the retained coefficients from the ring contents,
  /// discarding accumulated floating-point drift. O(W log W). The phasor
  /// table is re-derived with trig calls only when it has accumulated more
  /// than kPhaseResetSteps incremental multiplies since it was last exact;
  /// below that the drift bound (~2*eps per step) is far under the
  /// coefficient update error this recomputation targets.
  void renormalize();

  /// Renormalize automatically every `interval` pushes (0 disables). The
  /// DFT policies use 4 * W, which bounds drift together with the
  /// kPhaseResetSteps phasor reset.
  void set_renormalize_interval(std::uint64_t interval) noexcept {
    renormalize_interval_ = interval;
  }

  /// Incremental phasor multiplies tolerated before renormalize() re-derives
  /// the phasor table with trig calls. Unit phasor drift is O(eps) per
  /// multiply, so 512 steps keep the table within ~1e-13 of exact.
  static constexpr std::uint64_t kPhaseResetSteps = 512;

  /// Multiplies applied to the phasor table since it was last exact (reset
  /// on every ring wrap, where all phasors return to 1 exactly).
  std::uint64_t phase_steps() const noexcept { return phase_steps_; }

  /// Coefficients whose value moved by more than `threshold` (absolute
  /// complex distance) since they were last drained. Used to piggyback
  /// summary updates onto outgoing tuples; draining marks them clean.
  std::vector<CoeffDelta> drain_dirty(double threshold);

  /// Number of pushes since the last drain (any coefficient state is
  /// "stale" on the receiver by at most this many tuples).
  std::uint64_t pushes_since_drain() const noexcept { return pushes_since_drain_; }

 private:
  void backfill_first(double value);
  void reset_phases_exact();

  std::size_t window_;
  // Structure-of-arrays stores: X[k] = (coeff_re_[k], coeff_im_[k]),
  // phasor e^{-2*pi*i*k*ring_pos/W} = (phase_re_[k], phase_im_[k]),
  // unit step e^{-2*pi*i*k/W} = (step_re_[k], step_im_[k]).
  std::vector<double> coeff_re_, coeff_im_;
  std::vector<double> phase_re_, phase_im_;
  std::vector<double> step_re_, step_im_;
  std::vector<Complex> last_sent_;      // values as of the previous drain
  std::vector<double> ring_;
  std::size_t ring_pos_ = 0;
  std::uint64_t count_ = 0;
  std::uint64_t renormalize_interval_ = 0;
  std::uint64_t pushes_since_drain_ = 0;
  std::uint64_t phase_steps_ = 0;
  double sum_ = 0.0;
  double sum_sq_ = 0.0;
  // Lazily materialized interleaved view of the SoA coefficient store.
  mutable std::vector<Complex> coeff_view_;
  mutable bool view_dirty_ = true;
};

}  // namespace dsjoin::dsp
