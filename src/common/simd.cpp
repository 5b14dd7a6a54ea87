#include "dsjoin/common/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <string_view>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DSJOIN_SIMD_X86 1
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define DSJOIN_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace dsjoin::common::simd {

namespace {

// ---------------------------------------------------------------------------
// Scalar reference kernel. The identity test pins every vector level
// against it.
// ---------------------------------------------------------------------------

std::size_t match_collect_scalar(const std::int64_t* keys, const double* ts,
                                 std::size_t n, std::int64_t key, double lo,
                                 double hi, std::uint32_t* out) noexcept {
  std::size_t count = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (keys[j] == key && ts[j] >= lo && ts[j] <= hi) {
      out[count++] = static_cast<std::uint32_t>(j);
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// AVX2 kernel. Compiled with a per-function target attribute so the
// translation unit builds at the portable baseline; dispatch guarantees
// it only runs on hosts with AVX2.
// ---------------------------------------------------------------------------
#if DSJOIN_SIMD_X86

#define DSJOIN_AVX2 __attribute__((target("avx2")))
#define DSJOIN_AVX512 __attribute__((target("avx512f,avx512dq")))

// Four-lane match scan: i64 key equality and double range compares produce
// a 4-bit lane mask (movemask over the double-compare domain); collection
// walks the set bits in ascending lane order.
DSJOIN_AVX2 std::size_t match_collect_avx2(const std::int64_t* keys,
                                           const double* ts, std::size_t n,
                                           std::int64_t key, double lo,
                                           double hi,
                                           std::uint32_t* out) noexcept {
  const __m256i vkey = _mm256_set1_epi64x(static_cast<long long>(key));
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  std::size_t count = 0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + j));
    const __m256d t = _mm256_loadu_pd(ts + j);
    const __m256d keq = _mm256_castsi256_pd(_mm256_cmpeq_epi64(k, vkey));
    const __m256d ge = _mm256_cmp_pd(t, vlo, _CMP_GE_OQ);
    const __m256d le = _mm256_cmp_pd(t, vhi, _CMP_LE_OQ);
    unsigned m = static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_and_pd(keq, _mm256_and_pd(ge, le))));
    while (m != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(m));
      out[count++] = static_cast<std::uint32_t>(j + lane);
      m &= m - 1;
    }
  }
  for (; j < n; ++j) {
    if (keys[j] == key && ts[j] >= lo && ts[j] <= hi) {
      out[count++] = static_cast<std::uint32_t>(j);
    }
  }
  return count;
}

// ---------------------------------------------------------------------------
// AVX-512 kernel: the same scan at 8 lanes.
// ---------------------------------------------------------------------------

// Eight-lane match scan: compare results land directly in __mmask8
// registers (no movemask detour); collection walks the set bits in
// ascending lane order.
DSJOIN_AVX512 std::size_t match_collect_avx512(const std::int64_t* keys,
                                               const double* ts, std::size_t n,
                                               std::int64_t key, double lo,
                                               double hi,
                                               std::uint32_t* out) noexcept {
  const __m512i vkey = _mm512_set1_epi64(static_cast<long long>(key));
  const __m512d vlo = _mm512_set1_pd(lo);
  const __m512d vhi = _mm512_set1_pd(hi);
  std::size_t count = 0;
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i k = _mm512_loadu_si512(keys + j);
    const __m512d t = _mm512_loadu_pd(ts + j);
    const __mmask8 keq = _mm512_cmpeq_epi64_mask(k, vkey);
    const __mmask8 ge = _mm512_cmp_pd_mask(t, vlo, _CMP_GE_OQ);
    const __mmask8 le = _mm512_cmp_pd_mask(t, vhi, _CMP_LE_OQ);
    unsigned m = static_cast<unsigned>(keq & ge & le);
    while (m != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(m));
      out[count++] = static_cast<std::uint32_t>(j + lane);
      m &= m - 1;
    }
  }
  for (; j < n; ++j) {
    if (keys[j] == key && ts[j] >= lo && ts[j] <= hi) {
      out[count++] = static_cast<std::uint32_t>(j);
    }
  }
  return count;
}

#endif  // DSJOIN_SIMD_X86

// ---------------------------------------------------------------------------
// NEON kernel.
// ---------------------------------------------------------------------------
#if DSJOIN_SIMD_NEON

// Two-lane match scan. NEON has no movemask, so the combined predicate is
// read back per lane; at two lanes that is still cheaper than the branchy
// scalar loop on mostly-miss partitions.
std::size_t match_collect_neon(const std::int64_t* keys, const double* ts,
                               std::size_t n, std::int64_t key, double lo,
                               double hi, std::uint32_t* out) noexcept {
  const int64x2_t vkey = vdupq_n_s64(key);
  const float64x2_t vlo = vdupq_n_f64(lo);
  const float64x2_t vhi = vdupq_n_f64(hi);
  std::size_t count = 0;
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const uint64x2_t keq = vceqq_s64(vld1q_s64(keys + j), vkey);
    const float64x2_t t = vld1q_f64(ts + j);
    const uint64x2_t ge = vcgeq_f64(t, vlo);
    const uint64x2_t le = vcleq_f64(t, vhi);
    const uint64x2_t m = vandq_u64(keq, vandq_u64(ge, le));
    if (vgetq_lane_u64(m, 0) != 0) out[count++] = static_cast<std::uint32_t>(j);
    if (vgetq_lane_u64(m, 1) != 0) {
      out[count++] = static_cast<std::uint32_t>(j + 1);
    }
  }
  for (; j < n; ++j) {
    if (keys[j] == key && ts[j] >= lo && ts[j] <= hi) {
      out[count++] = static_cast<std::uint32_t>(j);
    }
  }
  return count;
}

#endif  // DSJOIN_SIMD_NEON

// ---------------------------------------------------------------------------
// Dispatch state.
// ---------------------------------------------------------------------------

Level env_level() noexcept {
  static const Level level = [] {
    const Level best = detected_level();
    const char* env = std::getenv("DSJOIN_SIMD");
    if (env == nullptr) return best;
    const std::string_view name(env);
    Level wanted = best;
    if (name == "scalar") wanted = Level::kScalar;
    else if (name == "neon") wanted = Level::kNeon;
    else if (name == "avx2") wanted = Level::kAvx2;
    else if (name == "avx512") wanted = Level::kAvx512;
    return wanted < best ? wanted : best;
  }();
  return level;
}

// 0xFF = no override; otherwise the forced Level value.
std::atomic<std::uint8_t> g_forced{0xFF};

}  // namespace

const char* level_name(Level level) noexcept {
  switch (level) {
    case Level::kScalar: return "scalar";
    case Level::kNeon: return "neon";
    case Level::kAvx2: return "avx2";
    case Level::kAvx512: return "avx512";
  }
  return "unknown";
}

Level detected_level() noexcept {
#if DSJOIN_SIMD_X86
  static const Level level = [] {
    if (__builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq")) {
      return Level::kAvx512;
    }
    if (__builtin_cpu_supports("avx2")) return Level::kAvx2;
    return Level::kScalar;
  }();
  return level;
#elif DSJOIN_SIMD_NEON
  return Level::kNeon;  // AArch64 mandates Advanced SIMD
#else
  return Level::kScalar;
#endif
}

Level active_level() noexcept {
  const std::uint8_t forced = g_forced.load(std::memory_order_relaxed);
  if (forced != 0xFF) return static_cast<Level>(forced);
  return env_level();
}

void force_level(Level level) noexcept {
  const Level best = detected_level();
  g_forced.store(static_cast<std::uint8_t>(level < best ? level : best),
                 std::memory_order_relaxed);
}

void reset_level() noexcept {
  g_forced.store(0xFF, std::memory_order_relaxed);
}

// The kernel dispatches on the active level; a level without an
// implementation on this architecture falls through to the scalar reference.

std::size_t match_collect_scan(const std::int64_t* keys, const double* ts,
                               std::size_t n, std::int64_t key, double lo,
                               double hi, std::uint32_t* out) noexcept {
  switch (active_level()) {
#if DSJOIN_SIMD_X86
    case Level::kAvx512:
      return match_collect_avx512(keys, ts, n, key, lo, hi, out);
    case Level::kAvx2: return match_collect_avx2(keys, ts, n, key, lo, hi, out);
#endif
#if DSJOIN_SIMD_NEON
    case Level::kNeon: return match_collect_neon(keys, ts, n, key, lo, hi, out);
#endif
    default: break;
  }
  return match_collect_scalar(keys, ts, n, key, lo, hi, out);
}

}  // namespace dsjoin::common::simd
