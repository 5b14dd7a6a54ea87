// Runtime-dispatched SIMD kernels: the TupleStore match-scan probes and
// the DFT family's summary reads.
//
// A hand-written kernel lives here only while it moves an end-to-end
// workload (DESIGN.md section 13): the match-collect scan, which the
// partitioned TupleStore's probes run on every arrival, and the radix-2
// butterfly and rounding kernels under DFTT's window reconstructions and
// the DFT family's lag searches (section 17). The summary operators
// (SlidingDft, AGMS) run plain C++ loops instead.
//
// Every kernel is BIT-IDENTICAL to its scalar reference at every dispatch
// level: each lane performs the scalar reference's exact IEEE operations
// (compares, or multiplies and adds with no FMA), so any correct
// vectorization returns the same bits. tests/core/batch_identity_test.cpp
// and tests/dsp/fft_test.cpp pin each level the host supports against the
// forced-scalar level.
//
// Dispatch is process-global: the best detected level is used by default,
// `DSJOIN_SIMD=scalar|neon|avx2|avx512` caps it at startup, and
// force_level() overrides it at runtime (tests and bench columns). Levels
// the host cannot execute are clamped away, so forcing is always safe.
#pragma once

#include <cstddef>
#include <cstdint>

namespace dsjoin::common::simd {

/// Instruction-set tiers, ordered by preference. A level is only ever
/// active when the host supports it.
enum class Level : std::uint8_t {
  kScalar = 0,
  kNeon = 1,
  kAvx2 = 2,
  kAvx512 = 3,
};

/// Human-readable level name ("scalar", "neon", "avx2", "avx512").
const char* level_name(Level level) noexcept;

/// Best level the host CPU can execute (cached CPUID / arch probe).
Level detected_level() noexcept;

/// Level kernels dispatch on right now: the forced level if one is set,
/// else the DSJOIN_SIMD-capped detected level.
Level active_level() noexcept;

/// Forces dispatch to `level`, clamped to detected_level(). Used by the
/// identity tests (compare every supported level against scalar) and by
/// bench_hotpath (the kernel row's reference is the forced-scalar path).
void force_level(Level level) noexcept;

/// Clears a force_level() override; dispatch returns to the default.
void reset_level() noexcept;

// --- Window match-scan kernel (partitioned TupleStore probes) --------------
//
// A linear scan over a store partition's SoA columns: entry j matches when
// keys[j] == key and lo <= ts[j] <= hi (both bounds inclusive, IEEE-754
// ordered compares; timestamps are never NaN). Equality and ordered
// comparison have exactly one answer per lane, so every vector level is
// bit-identical to the scalar reference by construction. `keys` and `ts`
// must not alias.

/// Writes the ascending indices of matching entries to `out` (which must
/// have room for n values) and returns how many matched. Index order is
/// what makes the store's collect_matches order independent of the
/// dispatch level.
std::size_t match_collect_scan(const std::int64_t* keys, const double* ts,
                               std::size_t n, std::int64_t key, double lo,
                               double hi, std::uint32_t* out) noexcept;

// --- Radix-2 butterflies (dsp::Fft) -----------------------------------------
//
// `blocks` consecutive blocks of one radix-2 stage over interleaved complex
// doubles, each block 2 * half values: an even half u and an odd half x.
// For j < half, with w = tw[j] (conjugated when inverting),
//   vr = xr*wr - xi*wi,  vi = xr*wi + xi*wr,  u' = u + v,  x' = u - v.
// Every level performs exactly these IEEE operations per component: no FMA
// (the kernels compile under -ffp-contract=off), and the conjugate is a
// sign flip, which is exact. So every level is bit-identical to the scalar
// reference. `tw` holds the stage's `half` twiddles contiguously.

using ButterflyKernel = void (*)(double* data, std::size_t blocks,
                                 std::size_t half, const double* tw) noexcept;

/// The butterfly kernel for the active level; `invert` conjugates the
/// twiddles. Pick it once per transform and call it per block or stage.
ButterflyKernel butterfly_kernel(bool invert) noexcept;

// --- Rounding (dsp::reconstruct_rounded) -------------------------------------
//
// out[i] = std::llround(pairs[2 * i]) for i < n: the real parts of n
// interleaved complex values, rounded half away from zero. A vector lane
// truncates, then steps away from zero when |x - trunc(x)| >= 0.5, which is
// llround's definition for |x| < 2^52 (where x - trunc(x) is exact); lanes
// holding NaN, +-inf or |x| >= 2^52 call std::llround itself.

void llround_real_parts(const double* pairs, std::size_t n,
                        std::int64_t* out) noexcept;

}  // namespace dsjoin::common::simd
