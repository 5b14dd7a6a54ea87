#include "dsjoin/common/simd.hpp"

#include <atomic>
#include <cmath>
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
// Scalar reference kernels. The identity tests pin every vector level
// against them.
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

template <bool Invert>
void butterflies_scalar(double* data, std::size_t blocks, std::size_t half,
                        const double* tw) noexcept {
  for (std::size_t b = 0; b < blocks; ++b) {
    double* even = data + 4 * half * b;
    double* odd = even + 2 * half;
    for (std::size_t j = 0; j < half; ++j) {
      const double wr = tw[2 * j];
      const double wi = Invert ? -tw[2 * j + 1] : tw[2 * j + 1];
      const double xr = odd[2 * j];
      const double xi = odd[2 * j + 1];
      const double vr = xr * wr - xi * wi;
      const double vi = xr * wi + xi * wr;
      const double ur = even[2 * j];
      const double ui = even[2 * j + 1];
      even[2 * j] = ur + vr;
      even[2 * j + 1] = ui + vi;
      odd[2 * j] = ur - vr;
      odd[2 * j + 1] = ui - vi;
    }
  }
}

void llround_real_parts_scalar(const double* pairs, std::size_t n,
                               std::int64_t* out) noexcept {
  for (std::size_t i = 0; i < n; ++i) out[i] = std::llround(pairs[2 * i]);
}

// ---------------------------------------------------------------------------
// AVX2 kernels: the match scan and the FFT butterflies. Compiled with
// per-function target attributes so the translation unit builds at the
// portable baseline; dispatch guarantees they only run on hosts with AVX2.
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

// Radix-2 butterflies, two complex per ymm, in the operation sequence the
// AVX-512 kernel documents. The first stage's one-complex blocks run the
// same sequence per xmm.
template <bool Invert>
DSJOIN_AVX2 void butterflies_avx2(double* data, std::size_t blocks,
                                  std::size_t half, const double* tw) noexcept {
  if (half < 2) {
    const __m128d flip = Invert ? _mm_set_pd(-0.0, 0.0) : _mm_set_pd(0.0, -0.0);
    const __m128d w = _mm_loadu_pd(tw);
    const __m128d wr = _mm_shuffle_pd(w, w, 0);
    const __m128d wi = _mm_shuffle_pd(w, w, 3);
    for (std::size_t b = 0; b < blocks; ++b) {
      double* even = data + 4 * b;
      const __m128d x = _mm_loadu_pd(even + 2);
      const __m128d u = _mm_loadu_pd(even);
      const __m128d p2 = _mm_mul_pd(_mm_shuffle_pd(x, x, 1), wi);
      const __m128d v = _mm_add_pd(_mm_mul_pd(x, wr), _mm_xor_pd(p2, flip));
      _mm_storeu_pd(even, _mm_add_pd(u, v));
      _mm_storeu_pd(even + 2, _mm_sub_pd(u, v));
    }
    return;
  }
  const __m256d flip = Invert ? _mm256_set_pd(-0.0, 0.0, -0.0, 0.0)
                              : _mm256_set_pd(0.0, -0.0, 0.0, -0.0);
  for (std::size_t b = 0; b < blocks; ++b) {
    double* even = data + 4 * half * b;
    double* odd = even + 2 * half;
    for (std::size_t j = 0; j < half; j += 2) {
      const __m256d w = _mm256_loadu_pd(tw + 2 * j);
      const __m256d x = _mm256_loadu_pd(odd + 2 * j);
      const __m256d u = _mm256_loadu_pd(even + 2 * j);
      const __m256d p1 = _mm256_mul_pd(x, _mm256_shuffle_pd(w, w, 0x0));
      const __m256d p2 = _mm256_mul_pd(_mm256_shuffle_pd(x, x, 0x5),
                                       _mm256_shuffle_pd(w, w, 0xF));
      const __m256d v = _mm256_add_pd(p1, _mm256_xor_pd(p2, flip));
      _mm256_storeu_pd(even + 2 * j, _mm256_add_pd(u, v));
      _mm256_storeu_pd(odd + 2 * j, _mm256_sub_pd(u, v));
    }
  }
}

// ---------------------------------------------------------------------------
// AVX-512 kernels: the same scan at 8 lanes, the FFT butterflies at four
// complex per zmm and the rounding at 8 lanes.
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

// Radix-2 butterflies, four complex per zmm. With p1 = x * (wr, wr) and
// p2 = swap(x) * (wi, wi), v is p1 plus p2 with one sign flipped per
// complex: (xr*wr - xi*wi, xi*wr + xr*wi) forward. Inverting conjugates w;
// since (-a)*b == -(a*b) and a - (-b) == a + b exactly, that is the same
// products with the other sign flipped. Blocks narrower than a zmm (the
// first two stages) run the AVX2 kernel's sequence.
template <bool Invert>
DSJOIN_AVX512 void butterflies_avx512(double* data, std::size_t blocks,
                                      std::size_t half,
                                      const double* tw) noexcept {
  if (half < 4) {
    butterflies_avx2<Invert>(data, blocks, half, tw);
    return;
  }
  const __m512d flip =
      Invert ? _mm512_set_pd(-0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0)
             : _mm512_set_pd(0.0, -0.0, 0.0, -0.0, 0.0, -0.0, 0.0, -0.0);
  for (std::size_t b = 0; b < blocks; ++b) {
    double* even = data + 4 * half * b;
    double* odd = even + 2 * half;
    for (std::size_t j = 0; j < half; j += 4) {
      const __m512d w = _mm512_loadu_pd(tw + 2 * j);
      const __m512d x = _mm512_loadu_pd(odd + 2 * j);
      const __m512d u = _mm512_loadu_pd(even + 2 * j);
      const __m512d p1 = _mm512_mul_pd(x, _mm512_shuffle_pd(w, w, 0x00));
      const __m512d p2 = _mm512_mul_pd(_mm512_shuffle_pd(x, x, 0x55),
                                       _mm512_shuffle_pd(w, w, 0xFF));
      const __m512d v = _mm512_add_pd(p1, _mm512_xor_pd(p2, flip));
      _mm512_storeu_pd(even + 2 * j, _mm512_add_pd(u, v));
      _mm512_storeu_pd(odd + 2 * j, _mm512_sub_pd(u, v));
    }
  }
}

// llround of eight real parts at a time: gather them from two zmm,
// truncate to int64, and step away from zero where the exact remainder
// x - trunc(x) reaches +-0.5. Lanes outside |x| < 2^52 (NaN compares false)
// are redone by std::llround.
DSJOIN_AVX512 void llround_real_parts_avx512(const double* pairs,
                                             std::size_t n,
                                             std::int64_t* out) noexcept {
  const __m512i real_lanes = _mm512_set_epi64(14, 12, 10, 8, 6, 4, 2, 0);
  const __m512d limit = _mm512_set1_pd(0x1p52);
  const __m512d half = _mm512_set1_pd(0.5);
  const __m512d minus_half = _mm512_set1_pd(-0.5);
  const __m512i one = _mm512_set1_epi64(1);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512d x = _mm512_permutex2var_pd(_mm512_loadu_pd(pairs + 2 * i),
                                             real_lanes,
                                             _mm512_loadu_pd(pairs + 2 * i + 8));
    __m512i r = _mm512_cvttpd_epi64(x);
    const __m512d frac = _mm512_sub_pd(x, _mm512_cvtepi64_pd(r));
    r = _mm512_mask_add_epi64(r, _mm512_cmp_pd_mask(frac, half, _CMP_GE_OQ),
                              r, one);
    r = _mm512_mask_sub_epi64(
        r, _mm512_cmp_pd_mask(frac, minus_half, _CMP_LE_OQ), r, one);
    _mm512_storeu_si512(out + i, r);
    unsigned special =
        ~static_cast<unsigned>(
            _mm512_cmp_pd_mask(_mm512_abs_pd(x), limit, _CMP_LT_OQ)) &
        0xFFu;
    while (special != 0) {
      const unsigned lane = static_cast<unsigned>(__builtin_ctz(special));
      out[i + lane] = std::llround(pairs[2 * (i + lane)]);
      special &= special - 1;
    }
  }
  llround_real_parts_scalar(pairs + 2 * i, n - i, out + i);
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

ButterflyKernel butterfly_kernel(bool invert) noexcept {
  switch (active_level()) {
#if DSJOIN_SIMD_X86
    case Level::kAvx512:
      return invert ? &butterflies_avx512<true> : &butterflies_avx512<false>;
    case Level::kAvx2:
      return invert ? &butterflies_avx2<true> : &butterflies_avx2<false>;
#endif
    default: break;
  }
  return invert ? &butterflies_scalar<true> : &butterflies_scalar<false>;
}

void llround_real_parts(const double* pairs, std::size_t n,
                        std::int64_t* out) noexcept {
#if DSJOIN_SIMD_X86
  if (active_level() == Level::kAvx512) {
    llround_real_parts_avx512(pairs, n, out);
    return;
  }
#endif
  llround_real_parts_scalar(pairs, n, out);
}

}  // namespace dsjoin::common::simd
