#include "dsjoin/common/simd.hpp"

#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <string_view>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define DSJOIN_SIMD_X86 1
// GCC 12's AVX-512 headers trip -Wmaybe-uninitialized on the
// _mm512_undefined_* intrinsics backing _mm512_cvtepi64_epi32 and friends;
// the values are fully overwritten, so the warning is a false positive.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif
#include <immintrin.h>
#endif
#if defined(__aarch64__)
#define DSJOIN_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace dsjoin::common::simd {

namespace {

constexpr std::uint64_t kM61 = (std::uint64_t{1} << 61) - 1;

// ---------------------------------------------------------------------------
// Scalar reference kernels. These restate the exact arithmetic of the batch
// callers (KeyPowers::of, FourWiseHash::eval_powers);
// the identity tests pin the vector levels against these, and the batch-vs-
// serial suites pin these against the per-tuple scalar paths.
// ---------------------------------------------------------------------------

inline std::uint64_t mulmod_m61(std::uint64_t a, std::uint64_t b) noexcept {
  __extension__ using uint128 = unsigned __int128;
  const uint128 prod = static_cast<uint128>(a) * static_cast<uint128>(b);
  std::uint64_t r = static_cast<std::uint64_t>(prod & kM61) +
                    static_cast<std::uint64_t>(prod >> 61);
  if (r >= kM61) r -= kM61;
  return r;
}

inline std::uint64_t poly_eval_one(std::uint64_t c0, std::uint64_t c1,
                                   std::uint64_t c2, std::uint64_t c3,
                                   std::uint64_t x1, std::uint64_t x2,
                                   std::uint64_t x3) noexcept {
  // Lazy 128-bit accumulation with a final double fold, exactly as
  // FourWiseHash::eval_powers (each product < 2^122, the sum < 2^124).
  // Coefficients arrive in registers: callers hoist the loads out of their
  // loops, since counter stores would otherwise force a reload per key
  // (u64 coefficient reads alias i64/u16 counter writes under TBAA).
  __extension__ using uint128 = unsigned __int128;
  uint128 s = static_cast<uint128>(c3) * x3;
  s += static_cast<uint128>(c2) * x2;
  s += static_cast<uint128>(c1) * x1;
  s += c0;
  std::uint64_t r = static_cast<std::uint64_t>(s & kM61) +
                    static_cast<std::uint64_t>(s >> 61);
  r = (r & kM61) + (r >> 61);
  if (r >= kM61) r -= kM61;
  return r;
}

void key_powers_scalar(const std::uint64_t* keys, std::size_t n,
                       std::uint64_t* x1, std::uint64_t* x2,
                       std::uint64_t* x3) noexcept {
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t v1 = keys[j] % kM61;
    const std::uint64_t v2 = mulmod_m61(v1, v1);
    x1[j] = v1;
    x2[j] = v2;
    x3[j] = mulmod_m61(v2, v1);
  }
}

std::uint64_t parity_sum_scalar(const std::uint64_t* c, const std::uint64_t* x1,
                                const std::uint64_t* x2, const std::uint64_t* x3,
                                std::size_t n) noexcept {
  const std::uint64_t c0 = c[0], c1 = c[1], c2 = c[2], c3 = c[3];
  std::uint64_t bits = 0;
  for (std::size_t j = 0; j < n; ++j) {
    bits += poly_eval_one(c0, c1, c2, c3, x1[j], x2[j], x3[j]) & 1u;
  }
  return bits;
}

void fast_agms_row_scalar(const std::uint64_t* bucket_coeff,
                          const std::uint64_t* sign_coeff,
                          const std::uint64_t* x1, const std::uint64_t* x2,
                          const std::uint64_t* x3, std::size_t n,
                          std::uint64_t buckets, std::int64_t weight,
                          std::int64_t* row) noexcept {
  // The sign is applied as 2*weight*parity - weight (== weight * sign(),
  // odd hash -> +1), matching FastAgmsSketch::update exactly.
  const std::uint64_t b0 = bucket_coeff[0], b1 = bucket_coeff[1];
  const std::uint64_t b2 = bucket_coeff[2], b3 = bucket_coeff[3];
  const std::uint64_t s0 = sign_coeff[0], s1 = sign_coeff[1];
  const std::uint64_t s2 = sign_coeff[2], s3 = sign_coeff[3];
  const bool pow2 = buckets != 0 && std::has_single_bit(buckets);
  const std::uint64_t mask = buckets - 1;
  const std::int64_t w2 = 2 * weight;
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint64_t h = poly_eval_one(b0, b1, b2, b3, x1[j], x2[j], x3[j]);
    const std::uint64_t b = pow2 ? (h & mask) : (h % buckets);
    row[b] += w2 * static_cast<std::int64_t>(
                       poly_eval_one(s0, s1, s2, s3, x1[j], x2[j], x3[j]) & 1u) -
              weight;
  }
}

void dft_accum_rotate_scalar(double* cr, double* ci, double* pr, double* pi,
                             const double* ur, const double* ui, std::size_t n,
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

void dft_accum_scalar(double* cr, double* ci, const double* pr,
                      const double* pi, std::size_t n, double delta) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    cr[k] += delta * pr[k];
    ci[k] += delta * pi[k];
  }
}

void dft_rotate_scalar(double* pr, double* pi, const double* ur,
                       const double* ui, std::size_t n) noexcept {
  for (std::size_t k = 0; k < n; ++k) {
    const double npr = pr[k] * ur[k] - pi[k] * ui[k];
    const double npi = pr[k] * ui[k] + pi[k] * ur[k];
    pr[k] = npr;
    pi[k] = npi;
  }
}

std::uint64_t match_count_scalar(const std::int64_t* keys, const double* ts,
                                 std::size_t n, std::int64_t key, double lo,
                                 double hi) noexcept {
  std::uint64_t count = 0;
  for (std::size_t j = 0; j < n; ++j) {
    if (keys[j] == key && ts[j] >= lo && ts[j] <= hi) ++count;
  }
  return count;
}

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
// AVX2 kernels. Compiled with per-function target attributes so the
// translation unit builds at the portable baseline; dispatch guarantees
// these only run on hosts with AVX2.
// ---------------------------------------------------------------------------
#if DSJOIN_SIMD_X86

#define DSJOIN_AVX2 __attribute__((target("avx2")))
#define DSJOIN_AVX512 __attribute__((target("avx512f,avx512dq")))

// r < 2^62 (sign bit clear, so the signed compare is an unsigned one):
// canonicalize with a single conditional subtract of p.
DSJOIN_AVX2 inline __m256i m61_cond_sub4(__m256i r) noexcept {
  const __m256i p = _mm256_set1_epi64x(static_cast<long long>(kM61));
  const __m256i gt =
      _mm256_cmpgt_epi64(r, _mm256_set1_epi64x(static_cast<long long>(kM61 - 1)));
  return _mm256_sub_epi64(r, _mm256_and_si256(gt, p));
}

// key (any u64) -> canonical residue: (k & M) + (k >> 61) < 2^61 + 7, then
// one conditional subtract. Equals keys[j] % kM61.
DSJOIN_AVX2 inline __m256i m61_fold_key4(__m256i k) noexcept {
  const __m256i mask = _mm256_set1_epi64x(static_cast<long long>(kM61));
  return m61_cond_sub4(
      _mm256_add_epi64(_mm256_and_si256(k, mask), _mm256_srli_epi64(k, 61)));
}

// Canonical a*b mod 2^61-1 for canonical a, b, without a 64x64->128
// multiply: split a = a1*2^32 + a0 (a1 < 2^29) and use 2^64 == 8 and
// 2^61 == 1 (mod p). With m = a0*b1 + a1*b0 < 2^62 the sum
//   8*(a1*b1) + fold(a0*b0) + (m >> 29) + ((m & (2^29-1)) << 32)
// is < 2^63, so one fold plus one conditional subtract is canonical.
DSJOIN_AVX2 inline __m256i m61_mulmod4(__m256i a, __m256i b) noexcept {
  const __m256i mask = _mm256_set1_epi64x(static_cast<long long>(kM61));
  const __m256i a1 = _mm256_srli_epi64(a, 32);
  const __m256i b1 = _mm256_srli_epi64(b, 32);
  const __m256i ll = _mm256_mul_epu32(a, b);    // a0*b0
  const __m256i lh = _mm256_mul_epu32(a, b1);   // a0*b1
  const __m256i hl = _mm256_mul_epu32(a1, b);   // a1*b0
  const __m256i hh = _mm256_mul_epu32(a1, b1);  // a1*b1
  const __m256i m = _mm256_add_epi64(lh, hl);
  __m256i t = _mm256_slli_epi64(hh, 3);
  t = _mm256_add_epi64(
      t, _mm256_add_epi64(_mm256_and_si256(ll, mask), _mm256_srli_epi64(ll, 61)));
  t = _mm256_add_epi64(t, _mm256_srli_epi64(m, 29));
  t = _mm256_add_epi64(
      t, _mm256_slli_epi64(_mm256_and_si256(m, _mm256_set1_epi64x(0x1FFFFFFF)), 32));
  return m61_cond_sub4(
      _mm256_add_epi64(_mm256_and_si256(t, mask), _mm256_srli_epi64(t, 61)));
}

// Canonical a+b mod p for canonical a, b (sum < 2^62).
DSJOIN_AVX2 inline __m256i m61_addmod4(__m256i a, __m256i b) noexcept {
  return m61_cond_sub4(_mm256_add_epi64(a, b));
}

DSJOIN_AVX2 void key_powers_avx2(const std::uint64_t* keys, std::size_t n,
                                 std::uint64_t* x1, std::uint64_t* x2,
                                 std::uint64_t* x3) noexcept {
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i v1 =
        m61_fold_key4(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + j)));
    const __m256i v2 = m61_mulmod4(v1, v1);
    const __m256i v3 = m61_mulmod4(v2, v1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x1 + j), v1);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x2 + j), v2);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(x3 + j), v3);
  }
  key_powers_scalar(keys + j, n - j, x1 + j, x2 + j, x3 + j);
}

// Coefficient broadcasts for poly_eval4, hoisted out of the per-key loops
// (u64 coefficient reads alias counter stores under TBAA, so the compiler
// cannot hoist them itself). Each multiplying coefficient is pre-split:
// b1 = b >> 32 and b1_8 = b1 << 3 turn the per-product high-half shift and
// the 2^64 == 8 scaling into loop-invariant constants (b1 < 2^29, so
// b1_8 < 2^32 stays a valid mul_epu32 operand).
struct CoeffSplit4 {
  __m256i b, b1, b1_8;
};

struct PolyCoeff4 {
  __m256i c0;
  CoeffSplit4 c1, c2, c3;
};

DSJOIN_AVX2 inline CoeffSplit4 split_coeff4(std::uint64_t c) noexcept {
  return CoeffSplit4{_mm256_set1_epi64x(static_cast<long long>(c)),
                     _mm256_set1_epi64x(static_cast<long long>(c >> 32)),
                     _mm256_set1_epi64x(static_cast<long long>((c >> 32) << 3))};
}

DSJOIN_AVX2 inline PolyCoeff4 broadcast_coeff4(const std::uint64_t* c) noexcept {
  return PolyCoeff4{_mm256_set1_epi64x(static_cast<long long>(c[0])),
                    split_coeff4(c[1]), split_coeff4(c[2]), split_coeff4(c[3])};
}

// Folded (not yet canonical) a * b mod p: congruent result < 2^61 + 4.
// Canonicalization is deferred to the polynomial sum, where one fold plus
// one conditional subtract covers all three products at once. `a1` is the
// caller-shared a >> 32 (the same split serves both hash polynomials).
DSJOIN_AVX2 inline __m256i m61_mulmod4_folded(__m256i a, __m256i a1,
                                              const CoeffSplit4& c) noexcept {
  const __m256i mask = _mm256_set1_epi64x(static_cast<long long>(kM61));
  const __m256i ll = _mm256_mul_epu32(a, c.b);      // a0*b0
  const __m256i lh = _mm256_mul_epu32(a, c.b1);     // a0*b1
  const __m256i hl = _mm256_mul_epu32(a1, c.b);     // a1*b0
  const __m256i hh8 = _mm256_mul_epu32(a1, c.b1_8); // 8*a1*b1, exact
  const __m256i m = _mm256_add_epi64(lh, hl);
  __m256i t = _mm256_add_epi64(
      hh8,
      _mm256_add_epi64(_mm256_and_si256(ll, mask), _mm256_srli_epi64(ll, 61)));
  t = _mm256_add_epi64(t, _mm256_srli_epi64(m, 29));
  t = _mm256_add_epi64(
      t, _mm256_slli_epi64(_mm256_and_si256(m, _mm256_set1_epi64x(0x1FFFFFFF)), 32));
  return _mm256_add_epi64(_mm256_and_si256(t, mask), _mm256_srli_epi64(t, 61));
}

// Power-basis evaluation with lazy reduction: three folded products plus c0
// sum to < 2^63, so a single fold and conditional subtract canonicalize the
// whole polynomial. The result is the unique residue of the same polynomial
// the scalar lazy-128 accumulation computes, so it matches bit for bit.
DSJOIN_AVX2 inline __m256i poly_eval4(const PolyCoeff4& c, __m256i v1,
                                      __m256i v2, __m256i v3, __m256i s1,
                                      __m256i s2, __m256i s3) noexcept {
  const __m256i mask = _mm256_set1_epi64x(static_cast<long long>(kM61));
  __m256i acc = _mm256_add_epi64(m61_mulmod4_folded(v3, s3, c.c3),
                                 m61_mulmod4_folded(v2, s2, c.c2));
  acc = _mm256_add_epi64(acc, m61_mulmod4_folded(v1, s1, c.c1));
  acc = _mm256_add_epi64(acc, c.c0);
  return m61_cond_sub4(
      _mm256_add_epi64(_mm256_and_si256(acc, mask), _mm256_srli_epi64(acc, 61)));
}

DSJOIN_AVX2 std::uint64_t parity_sum_avx2(const std::uint64_t* c,
                                          const std::uint64_t* x1,
                                          const std::uint64_t* x2,
                                          const std::uint64_t* x3,
                                          std::size_t n) noexcept {
  const PolyCoeff4 cc = broadcast_coeff4(c);
  const __m256i one = _mm256_set1_epi64x(1);
  __m256i acc = _mm256_setzero_si256();
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i v1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x1 + j));
    const __m256i v2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x2 + j));
    const __m256i v3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x3 + j));
    const __m256i r =
        poly_eval4(cc, v1, v2, v3, _mm256_srli_epi64(v1, 32),
                   _mm256_srli_epi64(v2, 32), _mm256_srli_epi64(v3, 32));
    acc = _mm256_add_epi64(acc, _mm256_and_si256(r, one));
  }
  alignas(32) std::uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] +
         parity_sum_scalar(c, x1 + j, x2 + j, x3 + j, n - j);
}

DSJOIN_AVX2 void fast_agms_row_avx2(const std::uint64_t* bucket_coeff,
                                    const std::uint64_t* sign_coeff,
                                    const std::uint64_t* x1,
                                    const std::uint64_t* x2,
                                    const std::uint64_t* x3, std::size_t n,
                                    std::uint64_t buckets, std::int64_t weight,
                                    std::int64_t* row) noexcept {
  if (!(buckets != 0 && std::has_single_bit(buckets))) {
    fast_agms_row_scalar(bucket_coeff, sign_coeff, x1, x2, x3, n, buckets,
                         weight, row);
    return;
  }
  const PolyCoeff4 bc = broadcast_coeff4(bucket_coeff);
  const PolyCoeff4 sc = broadcast_coeff4(sign_coeff);
  const __m256i mask = _mm256_set1_epi64x(static_cast<long long>(buckets - 1));
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i wplus = _mm256_set1_epi64x(static_cast<long long>(weight));
  const __m256i wminus = _mm256_set1_epi64x(static_cast<long long>(-weight));
  alignas(32) std::uint64_t bidx[4];
  alignas(32) std::int64_t delta[4];
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i v1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x1 + j));
    const __m256i v2 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x2 + j));
    const __m256i v3 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(x3 + j));
    const __m256i s1 = _mm256_srli_epi64(v1, 32);
    const __m256i s2 = _mm256_srli_epi64(v2, 32);
    const __m256i s3 = _mm256_srli_epi64(v3, 32);
    const __m256i bh = poly_eval4(bc, v1, v2, v3, s1, s2, s3);
    const __m256i sh = poly_eval4(sc, v1, v2, v3, s1, s2, s3);
    _mm256_store_si256(reinterpret_cast<__m256i*>(bidx),
                       _mm256_and_si256(bh, mask));
    // delta = (sign hash odd) ? +weight : -weight, as a lane blend.
    const __m256i odd = _mm256_cmpeq_epi64(_mm256_and_si256(sh, one), one);
    _mm256_store_si256(reinterpret_cast<__m256i*>(delta),
                       _mm256_blendv_epi8(wminus, wplus, odd));
    row[bidx[0]] += delta[0];
    row[bidx[1]] += delta[1];
    row[bidx[2]] += delta[2];
    row[bidx[3]] += delta[3];
  }
  fast_agms_row_scalar(bucket_coeff, sign_coeff, x1 + j, x2 + j, x3 + j, n - j,
                       buckets, weight, row);
}

DSJOIN_AVX2 void dft_accum_rotate_avx2(double* cr, double* ci, double* pr,
                                       double* pi, const double* ur,
                                       const double* ui, std::size_t n,
                                       double delta) noexcept {
  const __m256d d = _mm256_set1_pd(delta);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d prv = _mm256_loadu_pd(pr + k);
    const __m256d piv = _mm256_loadu_pd(pi + k);
    _mm256_storeu_pd(cr + k, _mm256_add_pd(_mm256_loadu_pd(cr + k),
                                           _mm256_mul_pd(d, prv)));
    _mm256_storeu_pd(ci + k, _mm256_add_pd(_mm256_loadu_pd(ci + k),
                                           _mm256_mul_pd(d, piv)));
    const __m256d urv = _mm256_loadu_pd(ur + k);
    const __m256d uiv = _mm256_loadu_pd(ui + k);
    _mm256_storeu_pd(pr + k, _mm256_sub_pd(_mm256_mul_pd(prv, urv),
                                           _mm256_mul_pd(piv, uiv)));
    _mm256_storeu_pd(pi + k, _mm256_add_pd(_mm256_mul_pd(prv, uiv),
                                           _mm256_mul_pd(piv, urv)));
  }
  dft_accum_rotate_scalar(cr + k, ci + k, pr + k, pi + k, ur + k, ui + k, n - k,
                          delta);
}

DSJOIN_AVX2 void dft_accum_avx2(double* cr, double* ci, const double* pr,
                                const double* pi, std::size_t n,
                                double delta) noexcept {
  const __m256d d = _mm256_set1_pd(delta);
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    _mm256_storeu_pd(cr + k, _mm256_add_pd(_mm256_loadu_pd(cr + k),
                                           _mm256_mul_pd(d, _mm256_loadu_pd(pr + k))));
    _mm256_storeu_pd(ci + k, _mm256_add_pd(_mm256_loadu_pd(ci + k),
                                           _mm256_mul_pd(d, _mm256_loadu_pd(pi + k))));
  }
  dft_accum_scalar(cr + k, ci + k, pr + k, pi + k, n - k, delta);
}

DSJOIN_AVX2 void dft_rotate_avx2(double* pr, double* pi, const double* ur,
                                 const double* ui, std::size_t n) noexcept {
  std::size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d prv = _mm256_loadu_pd(pr + k);
    const __m256d piv = _mm256_loadu_pd(pi + k);
    const __m256d urv = _mm256_loadu_pd(ur + k);
    const __m256d uiv = _mm256_loadu_pd(ui + k);
    _mm256_storeu_pd(pr + k, _mm256_sub_pd(_mm256_mul_pd(prv, urv),
                                           _mm256_mul_pd(piv, uiv)));
    _mm256_storeu_pd(pi + k, _mm256_add_pd(_mm256_mul_pd(prv, uiv),
                                           _mm256_mul_pd(piv, urv)));
  }
  dft_rotate_scalar(pr + k, pi + k, ur + k, ui + k, n - k);
}

// Four-lane match scan: i64 key equality and double range compares produce
// a 4-bit lane mask (movemask over the double-compare domain); counting is
// a popcount, collection walks the set bits in ascending lane order.
DSJOIN_AVX2 std::uint64_t match_count_avx2(const std::int64_t* keys,
                                           const double* ts, std::size_t n,
                                           std::int64_t key, double lo,
                                           double hi) noexcept {
  const __m256i vkey = _mm256_set1_epi64x(static_cast<long long>(key));
  const __m256d vlo = _mm256_set1_pd(lo);
  const __m256d vhi = _mm256_set1_pd(hi);
  std::uint64_t count = 0;
  std::size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    const __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + j));
    const __m256d t = _mm256_loadu_pd(ts + j);
    const __m256d keq = _mm256_castsi256_pd(_mm256_cmpeq_epi64(k, vkey));
    const __m256d ge = _mm256_cmp_pd(t, vlo, _CMP_GE_OQ);
    const __m256d le = _mm256_cmp_pd(t, vhi, _CMP_LE_OQ);
    const int m = _mm256_movemask_pd(_mm256_and_pd(keq, _mm256_and_pd(ge, le)));
    count += static_cast<std::uint64_t>(__builtin_popcount(static_cast<unsigned>(m)));
  }
  return count + match_count_scalar(keys + j, ts + j, n - j, key, lo, hi);
}

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
// AVX-512 kernels: the same arithmetic at 8 lanes, with mask registers
// replacing the compare/and/sub canonicalization sequence.
// ---------------------------------------------------------------------------

DSJOIN_AVX512 inline __m512i m61_cond_sub8(__m512i r) noexcept {
  const __m512i p = _mm512_set1_epi64(static_cast<long long>(kM61));
  const __mmask8 ge = _mm512_cmpge_epu64_mask(r, p);
  return _mm512_mask_sub_epi64(r, ge, r, p);
}

DSJOIN_AVX512 inline __m512i m61_fold_key8(__m512i k) noexcept {
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kM61));
  return m61_cond_sub8(
      _mm512_add_epi64(_mm512_and_si512(k, mask), _mm512_srli_epi64(k, 61)));
}

DSJOIN_AVX512 inline __m512i m61_mulmod8(__m512i a, __m512i b) noexcept {
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kM61));
  const __m512i a1 = _mm512_srli_epi64(a, 32);
  const __m512i b1 = _mm512_srli_epi64(b, 32);
  const __m512i ll = _mm512_mul_epu32(a, b);
  const __m512i lh = _mm512_mul_epu32(a, b1);
  const __m512i hl = _mm512_mul_epu32(a1, b);
  const __m512i hh = _mm512_mul_epu32(a1, b1);
  const __m512i m = _mm512_add_epi64(lh, hl);
  __m512i t = _mm512_slli_epi64(hh, 3);
  t = _mm512_add_epi64(
      t, _mm512_add_epi64(_mm512_and_si512(ll, mask), _mm512_srli_epi64(ll, 61)));
  t = _mm512_add_epi64(t, _mm512_srli_epi64(m, 29));
  t = _mm512_add_epi64(
      t, _mm512_slli_epi64(_mm512_and_si512(m, _mm512_set1_epi64(0x1FFFFFFF)), 32));
  return m61_cond_sub8(
      _mm512_add_epi64(_mm512_and_si512(t, mask), _mm512_srli_epi64(t, 61)));
}

DSJOIN_AVX512 inline __m512i m61_addmod8(__m512i a, __m512i b) noexcept {
  return m61_cond_sub8(_mm512_add_epi64(a, b));
}

DSJOIN_AVX512 void key_powers_avx512(const std::uint64_t* keys, std::size_t n,
                                     std::uint64_t* x1, std::uint64_t* x2,
                                     std::uint64_t* x3) noexcept {
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i v1 = m61_fold_key8(_mm512_loadu_si512(keys + j));
    const __m512i v2 = m61_mulmod8(v1, v1);
    const __m512i v3 = m61_mulmod8(v2, v1);
    _mm512_storeu_si512(x1 + j, v1);
    _mm512_storeu_si512(x2 + j, v2);
    _mm512_storeu_si512(x3 + j, v3);
  }
  key_powers_scalar(keys + j, n - j, x1 + j, x2 + j, x3 + j);
}

// Pre-split coefficient broadcasts and lazy-reduction polynomial evaluation;
// see the AVX2 CoeffSplit4/poly_eval4 comments for the bounds argument.
struct CoeffSplit8 {
  __m512i b, b1, b1_8;
};

struct PolyCoeff8 {
  __m512i c0;
  CoeffSplit8 c1, c2, c3;
};

DSJOIN_AVX512 inline CoeffSplit8 split_coeff8(std::uint64_t c) noexcept {
  return CoeffSplit8{_mm512_set1_epi64(static_cast<long long>(c)),
                     _mm512_set1_epi64(static_cast<long long>(c >> 32)),
                     _mm512_set1_epi64(static_cast<long long>((c >> 32) << 3))};
}

DSJOIN_AVX512 inline PolyCoeff8 broadcast_coeff8(const std::uint64_t* c) noexcept {
  return PolyCoeff8{_mm512_set1_epi64(static_cast<long long>(c[0])),
                    split_coeff8(c[1]), split_coeff8(c[2]), split_coeff8(c[3])};
}

DSJOIN_AVX512 inline __m512i m61_mulmod8_folded(__m512i a, __m512i a1,
                                                const CoeffSplit8& c) noexcept {
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kM61));
  const __m512i ll = _mm512_mul_epu32(a, c.b);
  const __m512i lh = _mm512_mul_epu32(a, c.b1);
  const __m512i hl = _mm512_mul_epu32(a1, c.b);
  const __m512i hh8 = _mm512_mul_epu32(a1, c.b1_8);
  const __m512i m = _mm512_add_epi64(lh, hl);
  __m512i t = _mm512_add_epi64(
      hh8,
      _mm512_add_epi64(_mm512_and_si512(ll, mask), _mm512_srli_epi64(ll, 61)));
  t = _mm512_add_epi64(t, _mm512_srli_epi64(m, 29));
  t = _mm512_add_epi64(
      t, _mm512_slli_epi64(_mm512_and_si512(m, _mm512_set1_epi64(0x1FFFFFFF)), 32));
  return _mm512_add_epi64(_mm512_and_si512(t, mask), _mm512_srli_epi64(t, 61));
}

DSJOIN_AVX512 inline __m512i poly_eval8(const PolyCoeff8& c, __m512i v1,
                                        __m512i v2, __m512i v3, __m512i s1,
                                        __m512i s2, __m512i s3) noexcept {
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(kM61));
  __m512i acc = _mm512_add_epi64(m61_mulmod8_folded(v3, s3, c.c3),
                                 m61_mulmod8_folded(v2, s2, c.c2));
  acc = _mm512_add_epi64(acc, m61_mulmod8_folded(v1, s1, c.c1));
  acc = _mm512_add_epi64(acc, c.c0);
  return m61_cond_sub8(
      _mm512_add_epi64(_mm512_and_si512(acc, mask), _mm512_srli_epi64(acc, 61)));
}

DSJOIN_AVX512 std::uint64_t parity_sum_avx512(const std::uint64_t* c,
                                              const std::uint64_t* x1,
                                              const std::uint64_t* x2,
                                              const std::uint64_t* x3,
                                              std::size_t n) noexcept {
  const PolyCoeff8 cc = broadcast_coeff8(c);
  const __m512i one = _mm512_set1_epi64(1);
  __m512i acc = _mm512_setzero_si512();
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i v1 = _mm512_loadu_si512(x1 + j);
    const __m512i v2 = _mm512_loadu_si512(x2 + j);
    const __m512i v3 = _mm512_loadu_si512(x3 + j);
    const __m512i r =
        poly_eval8(cc, v1, v2, v3, _mm512_srli_epi64(v1, 32),
                   _mm512_srli_epi64(v2, 32), _mm512_srli_epi64(v3, 32));
    acc = _mm512_add_epi64(acc, _mm512_and_si512(r, one));
  }
  alignas(64) std::uint64_t lanes[8];
  _mm512_store_si512(lanes, acc);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] + lanes[4] + lanes[5] +
         lanes[6] + lanes[7] +
         parity_sum_scalar(c, x1 + j, x2 + j, x3 + j, n - j);
}

DSJOIN_AVX512 void fast_agms_row_avx512(const std::uint64_t* bucket_coeff,
                                        const std::uint64_t* sign_coeff,
                                        const std::uint64_t* x1,
                                        const std::uint64_t* x2,
                                        const std::uint64_t* x3, std::size_t n,
                                        std::uint64_t buckets,
                                        std::int64_t weight,
                                        std::int64_t* row) noexcept {
  if (!(buckets != 0 && std::has_single_bit(buckets))) {
    fast_agms_row_scalar(bucket_coeff, sign_coeff, x1, x2, x3, n, buckets,
                         weight, row);
    return;
  }
  const PolyCoeff8 bc = broadcast_coeff8(bucket_coeff);
  const PolyCoeff8 sc = broadcast_coeff8(sign_coeff);
  const __m512i mask = _mm512_set1_epi64(static_cast<long long>(buckets - 1));
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i wplus = _mm512_set1_epi64(static_cast<long long>(weight));
  const __m512i wminus = _mm512_set1_epi64(static_cast<long long>(-weight));
  alignas(64) std::uint64_t bidx[8];
  alignas(64) std::int64_t delta[8];
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i v1 = _mm512_loadu_si512(x1 + j);
    const __m512i v2 = _mm512_loadu_si512(x2 + j);
    const __m512i v3 = _mm512_loadu_si512(x3 + j);
    const __m512i s1 = _mm512_srli_epi64(v1, 32);
    const __m512i s2 = _mm512_srli_epi64(v2, 32);
    const __m512i s3 = _mm512_srli_epi64(v3, 32);
    const __m512i bh = poly_eval8(bc, v1, v2, v3, s1, s2, s3);
    const __m512i sh = poly_eval8(sc, v1, v2, v3, s1, s2, s3);
    _mm512_store_si512(bidx, _mm512_and_si512(bh, mask));
    const __mmask8 odd = _mm512_test_epi64_mask(sh, one);
    _mm512_store_si512(delta, _mm512_mask_blend_epi64(odd, wminus, wplus));
    row[bidx[0]] += delta[0];
    row[bidx[1]] += delta[1];
    row[bidx[2]] += delta[2];
    row[bidx[3]] += delta[3];
    row[bidx[4]] += delta[4];
    row[bidx[5]] += delta[5];
    row[bidx[6]] += delta[6];
    row[bidx[7]] += delta[7];
  }
  fast_agms_row_scalar(bucket_coeff, sign_coeff, x1 + j, x2 + j, x3 + j, n - j,
                       buckets, weight, row);
}

DSJOIN_AVX512 void dft_accum_rotate_avx512(double* cr, double* ci, double* pr,
                                           double* pi, const double* ur,
                                           const double* ui, std::size_t n,
                                           double delta) noexcept {
  const __m512d d = _mm512_set1_pd(delta);
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m512d prv = _mm512_loadu_pd(pr + k);
    const __m512d piv = _mm512_loadu_pd(pi + k);
    _mm512_storeu_pd(cr + k, _mm512_add_pd(_mm512_loadu_pd(cr + k),
                                           _mm512_mul_pd(d, prv)));
    _mm512_storeu_pd(ci + k, _mm512_add_pd(_mm512_loadu_pd(ci + k),
                                           _mm512_mul_pd(d, piv)));
    const __m512d urv = _mm512_loadu_pd(ur + k);
    const __m512d uiv = _mm512_loadu_pd(ui + k);
    _mm512_storeu_pd(pr + k, _mm512_sub_pd(_mm512_mul_pd(prv, urv),
                                           _mm512_mul_pd(piv, uiv)));
    _mm512_storeu_pd(pi + k, _mm512_add_pd(_mm512_mul_pd(prv, uiv),
                                           _mm512_mul_pd(piv, urv)));
  }
  dft_accum_rotate_scalar(cr + k, ci + k, pr + k, pi + k, ur + k, ui + k, n - k,
                          delta);
}

DSJOIN_AVX512 void dft_accum_avx512(double* cr, double* ci, const double* pr,
                                    const double* pi, std::size_t n,
                                    double delta) noexcept {
  const __m512d d = _mm512_set1_pd(delta);
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    _mm512_storeu_pd(cr + k, _mm512_add_pd(_mm512_loadu_pd(cr + k),
                                           _mm512_mul_pd(d, _mm512_loadu_pd(pr + k))));
    _mm512_storeu_pd(ci + k, _mm512_add_pd(_mm512_loadu_pd(ci + k),
                                           _mm512_mul_pd(d, _mm512_loadu_pd(pi + k))));
  }
  dft_accum_scalar(cr + k, ci + k, pr + k, pi + k, n - k, delta);
}

DSJOIN_AVX512 void dft_rotate_avx512(double* pr, double* pi, const double* ur,
                                     const double* ui, std::size_t n) noexcept {
  std::size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    const __m512d prv = _mm512_loadu_pd(pr + k);
    const __m512d piv = _mm512_loadu_pd(pi + k);
    const __m512d urv = _mm512_loadu_pd(ur + k);
    const __m512d uiv = _mm512_loadu_pd(ui + k);
    _mm512_storeu_pd(pr + k, _mm512_sub_pd(_mm512_mul_pd(prv, urv),
                                           _mm512_mul_pd(piv, uiv)));
    _mm512_storeu_pd(pi + k, _mm512_add_pd(_mm512_mul_pd(prv, uiv),
                                           _mm512_mul_pd(piv, urv)));
  }
  dft_rotate_scalar(pr + k, pi + k, ur + k, ui + k, n - k);
}

// Eight-lane match scan: compare results land directly in __mmask8
// registers (no movemask detour); counting is a popcount over the mask,
// collection walks the set bits in ascending lane order.
DSJOIN_AVX512 std::uint64_t match_count_avx512(const std::int64_t* keys,
                                               const double* ts, std::size_t n,
                                               std::int64_t key, double lo,
                                               double hi) noexcept {
  const __m512i vkey = _mm512_set1_epi64(static_cast<long long>(key));
  const __m512d vlo = _mm512_set1_pd(lo);
  const __m512d vhi = _mm512_set1_pd(hi);
  std::uint64_t count = 0;
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m512i k = _mm512_loadu_si512(keys + j);
    const __m512d t = _mm512_loadu_pd(ts + j);
    const __mmask8 keq = _mm512_cmpeq_epi64_mask(k, vkey);
    const __mmask8 ge = _mm512_cmp_pd_mask(t, vlo, _CMP_GE_OQ);
    const __mmask8 le = _mm512_cmp_pd_mask(t, vhi, _CMP_LE_OQ);
    const unsigned m = static_cast<unsigned>(keq & ge & le);
    count += static_cast<std::uint64_t>(__builtin_popcount(m));
  }
  return count + match_count_scalar(keys + j, ts + j, n - j, key, lo, hi);
}

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
// NEON kernels (DFT only; the integer kernels fall back to scalar there).
// vmulq/vaddq/vsubq are per-lane IEEE operations with no contraction.
// ---------------------------------------------------------------------------
#if DSJOIN_SIMD_NEON

void dft_accum_rotate_neon(double* cr, double* ci, double* pr, double* pi,
                           const double* ur, const double* ui, std::size_t n,
                           double delta) noexcept {
  const float64x2_t d = vdupq_n_f64(delta);
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const float64x2_t prv = vld1q_f64(pr + k);
    const float64x2_t piv = vld1q_f64(pi + k);
    vst1q_f64(cr + k, vaddq_f64(vld1q_f64(cr + k), vmulq_f64(d, prv)));
    vst1q_f64(ci + k, vaddq_f64(vld1q_f64(ci + k), vmulq_f64(d, piv)));
    const float64x2_t urv = vld1q_f64(ur + k);
    const float64x2_t uiv = vld1q_f64(ui + k);
    vst1q_f64(pr + k, vsubq_f64(vmulq_f64(prv, urv), vmulq_f64(piv, uiv)));
    vst1q_f64(pi + k, vaddq_f64(vmulq_f64(prv, uiv), vmulq_f64(piv, urv)));
  }
  dft_accum_rotate_scalar(cr + k, ci + k, pr + k, pi + k, ur + k, ui + k, n - k,
                          delta);
}

void dft_accum_neon(double* cr, double* ci, const double* pr, const double* pi,
                    std::size_t n, double delta) noexcept {
  const float64x2_t d = vdupq_n_f64(delta);
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    vst1q_f64(cr + k, vaddq_f64(vld1q_f64(cr + k), vmulq_f64(d, vld1q_f64(pr + k))));
    vst1q_f64(ci + k, vaddq_f64(vld1q_f64(ci + k), vmulq_f64(d, vld1q_f64(pi + k))));
  }
  dft_accum_scalar(cr + k, ci + k, pr + k, pi + k, n - k, delta);
}

void dft_rotate_neon(double* pr, double* pi, const double* ur, const double* ui,
                     std::size_t n) noexcept {
  std::size_t k = 0;
  for (; k + 2 <= n; k += 2) {
    const float64x2_t prv = vld1q_f64(pr + k);
    const float64x2_t piv = vld1q_f64(pi + k);
    const float64x2_t urv = vld1q_f64(ur + k);
    const float64x2_t uiv = vld1q_f64(ui + k);
    vst1q_f64(pr + k, vsubq_f64(vmulq_f64(prv, urv), vmulq_f64(piv, uiv)));
    vst1q_f64(pi + k, vaddq_f64(vmulq_f64(prv, uiv), vmulq_f64(piv, urv)));
  }
  dft_rotate_scalar(pr + k, pi + k, ur + k, ui + k, n - k);
}

// Two-lane match scan. NEON has no movemask, so the combined predicate is
// read back per lane; at two lanes that is still cheaper than the branchy
// scalar loop on mostly-miss partitions.
std::uint64_t match_count_neon(const std::int64_t* keys, const double* ts,
                               std::size_t n, std::int64_t key, double lo,
                               double hi) noexcept {
  const int64x2_t vkey = vdupq_n_s64(key);
  const float64x2_t vlo = vdupq_n_f64(lo);
  const float64x2_t vhi = vdupq_n_f64(hi);
  std::uint64_t count = 0;
  std::size_t j = 0;
  for (; j + 2 <= n; j += 2) {
    const uint64x2_t keq = vceqq_s64(vld1q_s64(keys + j), vkey);
    const float64x2_t t = vld1q_f64(ts + j);
    const uint64x2_t ge = vcgeq_f64(t, vlo);
    const uint64x2_t le = vcleq_f64(t, vhi);
    const uint64x2_t m = vandq_u64(keq, vandq_u64(ge, le));
    count += vgetq_lane_u64(m, 0) & 1u;
    count += vgetq_lane_u64(m, 1) & 1u;
  }
  return count + match_count_scalar(keys + j, ts + j, n - j, key, lo, hi);
}

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

// Each kernel dispatches on the active level; levels without an
// implementation for a kernel (or the wrong architecture) fall through to
// the scalar reference, which is always exact.

void dft_accum_rotate(double* cr, double* ci, double* pr, double* pi,
                      const double* ur, const double* ui, std::size_t n,
                      double delta) noexcept {
  switch (active_level()) {
#if DSJOIN_SIMD_X86
    case Level::kAvx512:
      dft_accum_rotate_avx512(cr, ci, pr, pi, ur, ui, n, delta);
      return;
    case Level::kAvx2:
      dft_accum_rotate_avx2(cr, ci, pr, pi, ur, ui, n, delta);
      return;
#endif
#if DSJOIN_SIMD_NEON
    case Level::kNeon:
      dft_accum_rotate_neon(cr, ci, pr, pi, ur, ui, n, delta);
      return;
#endif
    default:
      break;
  }
  dft_accum_rotate_scalar(cr, ci, pr, pi, ur, ui, n, delta);
}

void dft_accum(double* cr, double* ci, const double* pr, const double* pi,
               std::size_t n, double delta) noexcept {
  switch (active_level()) {
#if DSJOIN_SIMD_X86
    case Level::kAvx512: dft_accum_avx512(cr, ci, pr, pi, n, delta); return;
    case Level::kAvx2: dft_accum_avx2(cr, ci, pr, pi, n, delta); return;
#endif
#if DSJOIN_SIMD_NEON
    case Level::kNeon: dft_accum_neon(cr, ci, pr, pi, n, delta); return;
#endif
    default: break;
  }
  dft_accum_scalar(cr, ci, pr, pi, n, delta);
}

void dft_rotate(double* pr, double* pi, const double* ur, const double* ui,
                std::size_t n) noexcept {
  switch (active_level()) {
#if DSJOIN_SIMD_X86
    case Level::kAvx512: dft_rotate_avx512(pr, pi, ur, ui, n); return;
    case Level::kAvx2: dft_rotate_avx2(pr, pi, ur, ui, n); return;
#endif
#if DSJOIN_SIMD_NEON
    case Level::kNeon: dft_rotate_neon(pr, pi, ur, ui, n); return;
#endif
    default: break;
  }
  dft_rotate_scalar(pr, pi, ur, ui, n);
}

void m61_key_powers(const std::uint64_t* keys, std::size_t n, std::uint64_t* x1,
                    std::uint64_t* x2, std::uint64_t* x3) noexcept {
  switch (active_level()) {
#if DSJOIN_SIMD_X86
    case Level::kAvx512: key_powers_avx512(keys, n, x1, x2, x3); return;
    case Level::kAvx2: key_powers_avx2(keys, n, x1, x2, x3); return;
#endif
    default: break;
  }
  key_powers_scalar(keys, n, x1, x2, x3);
}

std::uint64_t m61_poly_parity_sum(const std::uint64_t* coeff,
                                  const std::uint64_t* x1,
                                  const std::uint64_t* x2,
                                  const std::uint64_t* x3,
                                  std::size_t n) noexcept {
  switch (active_level()) {
#if DSJOIN_SIMD_X86
    case Level::kAvx512: return parity_sum_avx512(coeff, x1, x2, x3, n);
    case Level::kAvx2: return parity_sum_avx2(coeff, x1, x2, x3, n);
#endif
    default: break;
  }
  return parity_sum_scalar(coeff, x1, x2, x3, n);
}

void fast_agms_update_row(const std::uint64_t* bucket_coeff,
                          const std::uint64_t* sign_coeff,
                          const std::uint64_t* x1, const std::uint64_t* x2,
                          const std::uint64_t* x3, std::size_t n,
                          std::uint64_t buckets, std::int64_t weight,
                          std::int64_t* row) noexcept {
  switch (active_level()) {
#if DSJOIN_SIMD_X86
    case Level::kAvx512:
      fast_agms_row_avx512(bucket_coeff, sign_coeff, x1, x2, x3, n, buckets,
                           weight, row);
      return;
    case Level::kAvx2:
      fast_agms_row_avx2(bucket_coeff, sign_coeff, x1, x2, x3, n, buckets,
                         weight, row);
      return;
#endif
    default: break;
  }
  fast_agms_row_scalar(bucket_coeff, sign_coeff, x1, x2, x3, n, buckets, weight,
                       row);
}

std::uint64_t match_count_scan(const std::int64_t* keys, const double* ts,
                               std::size_t n, std::int64_t key, double lo,
                               double hi) noexcept {
  switch (active_level()) {
#if DSJOIN_SIMD_X86
    case Level::kAvx512: return match_count_avx512(keys, ts, n, key, lo, hi);
    case Level::kAvx2: return match_count_avx2(keys, ts, n, key, lo, hi);
#endif
#if DSJOIN_SIMD_NEON
    case Level::kNeon: return match_count_neon(keys, ts, n, key, lo, hi);
#endif
    default: break;
  }
  return match_count_scalar(keys, ts, n, key, lo, hi);
}

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
