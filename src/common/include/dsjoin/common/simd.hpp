// Runtime-dispatched SIMD kernel for the TupleStore match-scan probes.
//
// A hand-written kernel lives here only while it moves an end-to-end
// workload (DESIGN.md section 13): today that is the match-collect scan,
// which the partitioned TupleStore's probes run on every arrival. The
// summary operators (SlidingDft, AGMS) run plain C++ loops instead.
//
// The kernel is BIT-IDENTICAL to its scalar reference at every dispatch
// level: key equality and ordered double compares have exactly one answer
// per lane, so any correct vectorization returns the same ascending index
// list. tests/core/batch_identity_test.cpp pins each level the host
// supports against the forced-scalar level.
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

}  // namespace dsjoin::common::simd
