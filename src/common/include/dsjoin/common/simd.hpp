// Runtime-dispatched SIMD kernels for the summary hot path.
//
// Every kernel here is BIT-IDENTICAL to its scalar reference at every
// dispatch level; that invariant is what lets the batch pipelines
// (SlidingDft, AGMS / Fast-AGMS) and the TupleStore probes use these
// kernels without perturbing the cross-backend parity guarantees of
// DESIGN.md sections 8/12. Identity holds by construction:
//
//  - The integer kernels compute canonical residues mod the Mersenne prime
//    2^61 - 1. Modular arithmetic has one canonical answer, so any correct
//    vectorization is exact and equality with the scalar path is automatic.
//  - The DFT kernels are per-lane independent IEEE-754 multiplies and adds:
//    no reassociation, no horizontal operations, and no FMA contraction
//    (the build sets -ffp-contract=off globally and the vector bodies use
//    explicit mul/add intrinsics). Each vector lane therefore performs
//    exactly the rounding sequence of the scalar loop.
//
// tests/core/batch_identity_test.cpp pins kernel output at every level the
// host supports against the forced-scalar level, and the existing
// batch-vs-serial identity suites run on top of the dispatched kernels.
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
/// active when the host supports it; kernels without an implementation at
/// the active level fall back to scalar (NEON covers the DFT kernels only).
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
/// bench_hotpath (the `batch` column is the forced-scalar kernel path).
void force_level(Level level) noexcept;

/// Clears a force_level() override; dispatch returns to the default.
void reset_level() noexcept;

// --- Sliding-DFT kernels (SoA complex accumulate / rotate) -----------------
//
// All arrays hold n doubles; distinct pointers must not alias. Formulas are
// exactly the scalar batch loop of SlidingDft::push_batch:
//   accum:   cr[k] += delta * pr[k];  ci[k] += delta * pi[k];
//   rotate:  (pr[k], pi[k]) <- (pr*ur - pi*ui, pr*ui + pi*ur)
// evaluated per lane in that operation order.

/// Fused accumulate-then-rotate (the non-wrap, delta != 0 step).
void dft_accum_rotate(double* cr, double* ci, double* pr, double* pi,
                      const double* ur, const double* ui, std::size_t n,
                      double delta) noexcept;

/// Accumulate only (the ring-wrap step; phases reset exactly afterwards).
void dft_accum(double* cr, double* ci, const double* pr, const double* pi,
               std::size_t n, double delta) noexcept;

/// Rotate only (the delta == 0, non-wrap step).
void dft_rotate(double* pr, double* pi, const double* ur, const double* ui,
                std::size_t n) noexcept;

// --- Mersenne-61 polynomial-hash kernels -----------------------------------
//
// Residues are canonical (in [0, 2^61-1)). `coeff` points at the four
// polynomial coefficients c0..c3 of a FourWiseHash, themselves canonical.

/// Per key: x1 = key mod 2^61-1, x2 = x1^2, x3 = x1^3 (all canonical).
/// Matches KeyPowers::of exactly.
void m61_key_powers(const std::uint64_t* keys, std::size_t n,
                    std::uint64_t* x1, std::uint64_t* x2,
                    std::uint64_t* x3) noexcept;

/// sum_j (eval_powers(key_j) & 1) — the branchless sign-accumulation sum of
/// AgmsSketch::update_batch, returned as an exact integer count.
std::uint64_t m61_poly_parity_sum(const std::uint64_t* coeff,
                                  const std::uint64_t* x1,
                                  const std::uint64_t* x2,
                                  const std::uint64_t* x3,
                                  std::size_t n) noexcept;

/// One Fast-AGMS row update, fused: per key j,
///   b      = poly(bucket_coeff, key_j) mod buckets
///   row[b] += (poly(sign_coeff, key_j) & 1) ? weight : -weight
/// Both evaluations run vectorized; bucket indices and signed deltas stream
/// through a register-sized staging buffer and the counter adds themselves
/// stay scalar (duplicate bucket indices make them inherently serial).
/// Integer adds commute, so the result is bit-identical to the per-key
/// update() loop in any order. The modulo is exact (mask when `buckets` is
/// a power of two, the vector path's only fast case; otherwise the whole
/// call falls back to the scalar reference with `%`).
void fast_agms_update_row(const std::uint64_t* bucket_coeff,
                          const std::uint64_t* sign_coeff,
                          const std::uint64_t* x1, const std::uint64_t* x2,
                          const std::uint64_t* x3, std::size_t n,
                          std::uint64_t buckets, std::int64_t weight,
                          std::int64_t* row) noexcept;

// --- Window match-scan kernels (partitioned TupleStore probes) -------------
//
// Linear scans over a store partition's SoA columns: entry j matches when
// keys[j] == key and lo <= ts[j] <= hi (both bounds inclusive, IEEE-754
// ordered compares; timestamps are never NaN). Equality and ordered
// comparison have exactly one answer per lane, so every vector level is
// bit-identical to the scalar reference by construction. `keys` and `ts`
// must not alias.

/// Number of entries matching (key, [lo, hi]).
std::uint64_t match_count_scan(const std::int64_t* keys, const double* ts,
                               std::size_t n, std::int64_t key, double lo,
                               double hi) noexcept;

/// Writes the ascending indices of matching entries to `out` (which must
/// have room for n values) and returns how many matched. Index order is
/// what makes the store's collect_matches order independent of the
/// dispatch level.
std::size_t match_collect_scan(const std::int64_t* keys, const double* ts,
                               std::size_t n, std::int64_t key, double lo,
                               double hi, std::uint32_t* out) noexcept;

}  // namespace dsjoin::common::simd
