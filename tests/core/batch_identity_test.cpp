// Batch-vs-scalar bit-identity: every batch ingestion path must leave its
// operator in *exactly* the state the scalar tuple-at-a-time reference path
// produces — same bits, not just "close". The summary engines feed their
// operators through the batch APIs, so these identities are what keeps the
// golden regression (and cross-worker-count determinism) intact.
//
// Each test splits one input stream into randomly sized batches — including
// empty and single-element batches — across three seeds, and compares full
// observable state against a scalar twin fed element by element. The last
// section pins the SIMD match-collect and rounding kernels against their
// scalar references at every dispatch level (the FFT butterflies are
// pinned in tests/dsp/fft_test.cpp).

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/common/simd.hpp"
#include "dsjoin/dsp/sliding_dft.hpp"
#include "dsjoin/sketch/agms.hpp"
#include "dsjoin/sketch/bloom.hpp"
#include "dsjoin/sketch/hash.hpp"

namespace dsjoin {
namespace {

constexpr std::uint64_t kSeeds[] = {17, 1234, 987654321};

/// Random batch size in [0, 64] with 0 and 1 guaranteed to occur often.
std::size_t next_batch_size(common::Xoshiro256& rng) {
  const std::uint64_t roll = rng.next() % 8;
  if (roll == 0) return 0;
  if (roll == 1) return 1;
  return 2 + rng.next() % 63;
}

std::vector<double> random_values(std::size_t n, common::Xoshiro256& rng) {
  std::vector<double> out(n);
  for (auto& v : out) v = rng.next_double_in(-100.0, 100.0);
  return out;
}

std::vector<std::uint64_t> random_keys(std::size_t n, common::Xoshiro256& rng) {
  std::vector<std::uint64_t> out(n);
  for (auto& k : out) k = rng.next() % 512;
  return out;
}

/// Keys hitting every M61 reduction edge: zero, the prime itself and its
/// neighbors, 32-bit limb boundaries, and the top of the u64 range.
std::vector<std::uint64_t> m61_edge_keys() {
  constexpr std::uint64_t kP = sketch::kMersenne61;
  return {0,      1,        kP - 1,   kP,      kP + 1,  (1ull << 32) - 1,
          1ull << 32, 1ull << 61, 1ull << 62, ~0ull,   ~0ull - 1, 0xdeadbeefULL};
}

TEST(BatchIdentity, SlidingDftMatchesScalarBitForBit) {
  for (const std::uint64_t seed : kSeeds) {
    common::Xoshiro256 rng(seed);
    const auto values = random_values(3000, rng);
    // An odd K too, so the loops' tails (after any compiler vectorization)
    // are covered.
    for (const std::size_t retained : {std::size_t{16}, std::size_t{13}}) {
      dsp::SlidingDft scalar(128, retained);
      dsp::SlidingDft batched(128, retained);
      // Window-aligned interval, as the DFT policies use: renormalizations
      // land inside batches too and must fire at identical push counts.
      scalar.set_renormalize_interval(4 * 128);
      batched.set_renormalize_interval(4 * 128);

      for (double v : values) scalar.push(v);
      std::size_t i = 0;
      while (i < values.size()) {
        const std::size_t n = std::min(next_batch_size(rng), values.size() - i);
        batched.push_batch(std::span<const double>(values).subspan(i, n));
        i += n;
      }

      ASSERT_EQ(scalar.count(), batched.count());
      EXPECT_EQ(scalar.phase_steps(), batched.phase_steps());
      EXPECT_EQ(scalar.mean(), batched.mean());
      EXPECT_EQ(scalar.variance(), batched.variance());
      const auto sc = scalar.coefficients();
      const auto bc = batched.coefficients();
      ASSERT_EQ(sc.size(), bc.size());
      for (std::size_t k = 0; k < sc.size(); ++k) {
        EXPECT_EQ(sc[k].real(), bc[k].real())
            << "k=" << k << " K=" << retained << " seed=" << seed;
        EXPECT_EQ(sc[k].imag(), bc[k].imag())
            << "k=" << k << " K=" << retained << " seed=" << seed;
      }
    }
  }
}

TEST(BatchIdentity, AgmsSketchMatchesScalarBitForBit) {
  for (const std::uint64_t seed : kSeeds) {
    common::Xoshiro256 rng(seed);
    const auto keys = random_keys(2000, rng);

    sketch::AgmsSketch scalar(sketch::AgmsShape{10, 2}, 42);
    sketch::AgmsSketch batched(sketch::AgmsShape{10, 2}, 42);

    // Mix of +1 (arrival) and -1 (expiry) weights, as the policies issue.
    for (std::size_t i = 0; i < keys.size(); ++i) {
      scalar.update(keys[i], i % 3 == 2 ? -1 : +1);
    }
    std::size_t i = 0;
    while (i < keys.size()) {
      std::size_t n = std::min(next_batch_size(rng), keys.size() - i);
      // Keep each batch within one weight class (policies batch arrivals
      // and expiries separately).
      for (std::size_t j = 0; j < n; ++j) {
        if (((i + j) % 3 == 2) != (i % 3 == 2)) {
          n = j;
          break;
        }
      }
      if (n == 0) {
        // Empty batches must be no-ops; then advance by one element.
        batched.update_batch(std::span<const std::uint64_t>{}, +1);
        n = 1;
      }
      batched.update_batch(std::span<const std::uint64_t>(keys).subspan(i, n),
                           i % 3 == 2 ? -1 : +1);
      i += n;
    }
    EXPECT_EQ(scalar.counters(), batched.counters()) << "seed=" << seed;

    // The M61 reduction edges plus full-range u64 keys (where negative i64
    // keys land), in one batch longer than the 1,024-key hashing chunk.
    std::vector<std::uint64_t> wide = m61_edge_keys();
    while (wide.size() < 1500) wide.push_back(rng.next());
    for (const std::uint64_t k : wide) scalar.update(k, +1);
    batched.update_batch(wide, +1);
    EXPECT_EQ(scalar.counters(), batched.counters()) << "wide seed=" << seed;
  }
}

TEST(BatchIdentity, CountingBloomMatchesScalarBitForBit) {
  for (const std::uint64_t seed : kSeeds) {
    common::Xoshiro256 rng(seed);
    const auto keys = random_keys(2000, rng);

    // 384 counters with 512 distinct keys: collisions, saturating inserts
    // and pinned counters all occur, so the order-dependent clamp behavior
    // is actually exercised.
    sketch::CountingBloomFilter scalar(384, 4, 42);
    sketch::CountingBloomFilter batched(384, 4, 42);

    std::vector<std::int32_t> deltas(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      deltas[i] = i % 3 == 2 ? -1 : +1;
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (deltas[i] > 0) {
        scalar.insert(keys[i]);
      } else {
        scalar.erase(keys[i]);
      }
    }
    std::size_t i = 0;
    while (i < keys.size()) {
      const std::size_t n = std::min(next_batch_size(rng), keys.size() - i);
      batched.apply_batch(std::span<const std::uint64_t>(keys).subspan(i, n),
                          std::span<const std::int32_t>(deltas).subspan(i, n));
      i += n;
    }
    EXPECT_EQ(scalar.counters(), batched.counters()) << "seed=" << seed;
  }
}

// The phasor table re-derivation inside renormalize() is conditional on the
// accumulated incremental step count (kPhaseResetSteps). Below the
// threshold the table is kept; the bound on its drift (~2 eps per unit
// multiply) must keep coefficient error far below the update error that
// renormalization targets.
TEST(BatchIdentity, PhasorDriftStaysBoundedBelowResetThreshold) {
  // W > kPhaseResetSteps so phase_steps can cross the threshold between
  // ring wraps (wraps reset the table exactly).
  const std::size_t W = 2048;
  ASSERT_GT(W, dsp::SlidingDft::kPhaseResetSteps);
  dsp::SlidingDft dft(W, 32);
  common::Xoshiro256 rng(5);

  // Fill the window, then advance to mid-ring: fewer steps than the
  // threshold accumulated since the last wrap.
  for (std::size_t i = 0; i < W; ++i) dft.push(rng.next_double_in(-1.0, 1.0));
  ASSERT_EQ(dft.phase_steps(), 0u);  // wrap resets exactly
  const std::uint64_t below = dsp::SlidingDft::kPhaseResetSteps - 1;
  for (std::uint64_t i = 0; i < below; ++i) {
    dft.push(rng.next_double_in(-1.0, 1.0));
  }
  ASSERT_EQ(dft.phase_steps(), below);

  // Renormalize below the threshold: coefficients are recomputed but the
  // (near-exact) phasor table is kept — phase_steps is not reset.
  dft.renormalize();
  EXPECT_EQ(dft.phase_steps(), below);

  // The kept table must still track the exact phasors: one more push made
  // with it, then an exact recompute, must agree to far better than the
  // update-error scale renormalization exists to fix.
  dsp::SlidingDft exact(W, 32);
  // Mirror the full history into a twin, renormalizing at the same point.
  common::Xoshiro256 rng2(5);
  for (std::size_t i = 0; i < W + below; ++i) {
    exact.push(rng2.next_double_in(-1.0, 1.0));
  }
  exact.renormalize();
  const double v = 0.123;
  dft.push(v);
  exact.push(v);
  const auto a = dft.coefficients();
  const auto b = exact.coefficients();
  for (std::size_t k = 0; k < a.size(); ++k) {
    EXPECT_NEAR(a[k].real(), b[k].real(), 1e-9);
    EXPECT_NEAR(a[k].imag(), b[k].imag(), 1e-9);
  }

  // Cross the threshold: the next renormalize re-derives the table.
  for (std::uint64_t i = dft.phase_steps();
       i < dsp::SlidingDft::kPhaseResetSteps; ++i) {
    dft.push(rng.next_double_in(-1.0, 1.0));
  }
  ASSERT_GE(dft.phase_steps(), dsp::SlidingDft::kPhaseResetSteps);
  dft.renormalize();
  EXPECT_EQ(dft.phase_steps(), 0u);
}

// ---------------------------------------------------------------------------
// SIMD == scalar: the dispatched match-scan kernels (the only hand-written
// kernels, DESIGN.md section 13) must be bit-identical to the forced-scalar
// reference at EVERY level the host supports.
// tests/stream/tuple_store_property_test.cpp drives the TupleStore probes
// through them at every level too.
// ---------------------------------------------------------------------------

namespace simd = common::simd;

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> out{simd::Level::kScalar};
  for (const simd::Level level :
       {simd::Level::kNeon, simd::Level::kAvx2, simd::Level::kAvx512}) {
    // Forcing an unsupported-on-this-arch tier (e.g. kNeon on x86) is legal
    // and falls back to scalar; including every tier up to the detected one
    // exercises those fallbacks too.
    if (level <= simd::detected_level()) out.push_back(level);
  }
  return out;
}

struct ForcedLevel {
  explicit ForcedLevel(simd::Level level) { simd::force_level(level); }
  ~ForcedLevel() { simd::reset_level(); }
};

TEST(SimdIdentity, MatchScanKernelsMatchScalarAtEveryLevel) {
  common::Xoshiro256 rng(kSeeds[1]);
  const std::size_t n = 1033;  // odd: vector body plus every tail shape
  std::vector<std::int64_t> keys(n);
  std::vector<double> ts(n);
  for (std::size_t j = 0; j < n; ++j) {
    // Few distinct keys (hits), negative keys included; gridded timestamps
    // so duplicates and boundary-exact bounds occur.
    keys[j] = static_cast<std::int64_t>(rng.next() % 7) - 3;
    ts[j] = 0.25 * static_cast<double>(rng.next() % 64);
  }

  struct Probe {
    std::int64_t key;
    double lo, hi;
  };
  std::vector<Probe> probes;
  for (std::int64_t key = -3; key <= 3; ++key) {
    probes.push_back({key, 2.0, 10.0});     // boundary-exact grid bounds
    probes.push_back({key, 0.0, 16.0});     // wide: most timestamps match
    probes.push_back({key, 5.125, 5.125});  // empty range between grid points
    probes.push_back({key, 9.0, 3.0});      // inverted: nothing matches
  }
  probes.push_back({99, 0.0, 16.0});  // absent key

  for (const Probe& probe : probes) {
    // Every tail length in [0, 17], plus lengths straddling all vector
    // widths, plus the full odd-sized batch.
    for (std::size_t len : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                            std::size_t{3}, std::size_t{4}, std::size_t{7},
                            std::size_t{8}, std::size_t{9}, std::size_t{15},
                            std::size_t{16}, std::size_t{17}, n}) {
      std::vector<std::uint32_t> want_idx(len);
      std::size_t want_m = 0;
      {
        ForcedLevel scalar(simd::Level::kScalar);
        want_m = simd::match_collect_scan(keys.data(), ts.data(), len,
                                          probe.key, probe.lo, probe.hi,
                                          want_idx.data());
      }
      for (const simd::Level level : supported_levels()) {
        ForcedLevel forced(level);
        std::vector<std::uint32_t> idx(len);
        const std::size_t m =
            simd::match_collect_scan(keys.data(), ts.data(), len, probe.key,
                                     probe.lo, probe.hi, idx.data());
        ASSERT_EQ(want_m, m)
            << simd::level_name(level) << " len=" << len << " key=" << probe.key;
        for (std::size_t k = 0; k < m; ++k) {
          ASSERT_EQ(want_idx[k], idx[k])
              << simd::level_name(level) << " len=" << len << " k=" << k;
        }
      }
    }
  }
}

// llround_real_parts must return std::llround of every real part at every
// level: the ties, the last double below one half, the limits of the
// vector lanes' exact range (2^52) and the values routed to libm (NaN,
// infinities, |x| >= 2^52), signed zeros and subnormals. Imaginary parts
// are NaN so a lane that read one would show.
TEST(SimdIdentity, RoundingKernelsMatchLlroundAtEveryLevel) {
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> reals = {
      0.5, -0.5, 1.5, -1.5, 2.5, -2.5, 0.49999999999999994,
      -0.49999999999999994, 0x1p52 - 0.5, -(0x1p52 - 0.5), 0x1p52 + 0.5,
      0x1p52 + 1.0, 0x1p52, -0x1p52, 0x1p53, -0x1p53, 0.0, -0.0,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(), 0x1p-1030,
      std::numeric_limits<double>::quiet_NaN(), inf, -inf, 0x1p63, -0x1p63,
      4503599627370495.5, -4503599627370495.5, 1e15 + 0.5, -1e15 - 0.5};
  common::Xoshiro256 rng(kSeeds[2]);
  for (int i = 0; i < 200; ++i) {
    // Multiples of 1/8: exact ties and near-ties around small integers.
    reals.push_back(static_cast<double>(static_cast<std::int64_t>(rng.next() % 4001) - 2000) / 8.0);
    reals.push_back(rng.next_double_in(-1e6, 1e6));
  }
  std::vector<double> pairs;
  for (const double re : reals) {
    pairs.push_back(re);
    pairs.push_back(std::numeric_limits<double>::quiet_NaN());
  }
  std::vector<std::int64_t> want(reals.size());
  for (std::size_t i = 0; i < reals.size(); ++i) want[i] = std::llround(reals[i]);

  for (const simd::Level level : supported_levels()) {
    ForcedLevel forced(level);
    // Every offset into a vector of lanes, with every tail length up to 17
    // and the whole rest of the input.
    for (std::size_t start = 0; start < 8; ++start) {
      for (std::size_t len = 0; len <= 18; ++len) {
        const std::size_t n = len <= 17 ? len : reals.size() - start;
        std::vector<std::int64_t> got(n, 12345);
        simd::llround_real_parts(pairs.data() + 2 * start, n, got.data());
        for (std::size_t i = 0; i < n; ++i) {
          ASSERT_EQ(got[i], want[start + i])
              << simd::level_name(level) << " x=" << reals[start + i];
        }
      }
    }
  }
}

TEST(SimdIdentity, ForceLevelClampsToDetected) {
  simd::force_level(simd::Level::kAvx512);
  EXPECT_LE(simd::active_level(), simd::detected_level());
  simd::reset_level();
  EXPECT_EQ(simd::active_level(), simd::detected_level());
  EXPECT_STREQ(simd::level_name(simd::Level::kScalar), "scalar");
  EXPECT_STREQ(simd::level_name(simd::Level::kAvx512), "avx512");
}

}  // namespace
}  // namespace dsjoin
