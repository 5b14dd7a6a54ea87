// Batch-vs-scalar bit-identity: every batch ingestion path must leave its
// operator in *exactly* the state the scalar tuple-at-a-time reference path
// produces — same bits, not just "close". The summary engines feed their
// operators through the batch APIs, so these identities are what keeps the
// golden regression (and cross-worker-count determinism) intact.
//
// Each test splits one input stream into randomly sized batches — including
// empty and single-element batches — across three seeds, and compares full
// observable state against a scalar twin fed element by element.

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/common/simd.hpp"
#include "dsjoin/dsp/sliding_dft.hpp"
#include "dsjoin/sketch/agms.hpp"
#include "dsjoin/sketch/bloom.hpp"
#include "dsjoin/sketch/hash.hpp"
#include "dsjoin/stream/window.hpp"

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

std::vector<stream::Tuple> random_tuples(std::size_t n, common::Xoshiro256& rng) {
  std::vector<stream::Tuple> out(n);
  double ts = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i].id = i + 1;
    out[i].key = static_cast<std::int64_t>(rng.next() % 64);
    ts += rng.next_double_in(0.0, 0.01);
    out[i].timestamp = ts;
    out[i].origin = 0;
    out[i].side = stream::StreamSide::kR;
  }
  return out;
}

TEST(BatchIdentity, SlidingDftMatchesScalarBitForBit) {
  for (const std::uint64_t seed : kSeeds) {
    common::Xoshiro256 rng(seed);
    const auto values = random_values(3000, rng);

    dsp::SlidingDft scalar(128, 16);
    dsp::SlidingDft batched(128, 16);
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
      EXPECT_EQ(sc[k].real(), bc[k].real()) << "k=" << k << " seed=" << seed;
      EXPECT_EQ(sc[k].imag(), bc[k].imag()) << "k=" << k << " seed=" << seed;
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
  }
}

TEST(BatchIdentity, FastAgmsSketchMatchesScalarBitForBit) {
  for (const std::uint64_t seed : kSeeds) {
    common::Xoshiro256 rng(seed);
    const auto keys = random_keys(2000, rng);

    sketch::FastAgmsSketch scalar(5, 96, 42);   // non-power-of-two buckets
    sketch::FastAgmsSketch batched(5, 96, 42);
    sketch::FastAgmsSketch scalar2(5, 256, 42);  // power-of-two buckets
    sketch::FastAgmsSketch batched2(5, 256, 42);

    for (const std::uint64_t k : keys) {
      scalar.update(k, +1);
      scalar2.update(k, +1);
    }
    std::size_t i = 0;
    while (i < keys.size()) {
      const std::size_t n = std::min(next_batch_size(rng), keys.size() - i);
      const auto chunk = std::span<const std::uint64_t>(keys).subspan(i, n);
      batched.update_batch(chunk, +1);
      batched2.update_batch(chunk, +1);
      i += n;
    }
    EXPECT_EQ(scalar.counters(), batched.counters()) << "seed=" << seed;
    EXPECT_EQ(scalar2.counters(), batched2.counters()) << "seed=" << seed;
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

TEST(BatchIdentity, CountingBloomInsertEraseBatchMatchScalar) {
  common::Xoshiro256 rng(kSeeds[0]);
  const auto keys = random_keys(500, rng);
  sketch::CountingBloomFilter scalar(256, 3, 7);
  sketch::CountingBloomFilter batched(256, 3, 7);
  for (const std::uint64_t k : keys) scalar.insert(k);
  batched.insert_batch(keys);
  EXPECT_EQ(scalar.counters(), batched.counters());
  for (const std::uint64_t k : keys) scalar.erase(k);
  batched.erase_batch(keys);
  EXPECT_EQ(scalar.counters(), batched.counters());
}

TEST(BatchIdentity, CountWindowMatchesScalarBitForBit) {
  for (const std::uint64_t seed : kSeeds) {
    common::Xoshiro256 rng(seed);
    const auto tuples = random_tuples(1200, rng);

    stream::CountWindow scalar(256);
    stream::CountWindow batched(256);
    std::vector<stream::Tuple> scalar_evicted;
    std::vector<stream::Tuple> batch_evicted;

    std::size_t i = 0;
    while (i < tuples.size()) {
      const std::size_t n = std::min(next_batch_size(rng), tuples.size() - i);
      for (std::size_t j = 0; j < n; ++j) {
        auto e = scalar.insert(tuples[i + j]);
        if (e.valid) scalar_evicted.push_back(e.tuple);
      }
      batched.insert_batch(std::span<const stream::Tuple>(tuples).subspan(i, n),
                           batch_evicted);
      i += n;
    }
    ASSERT_EQ(scalar.size(), batched.size());
    ASSERT_EQ(scalar_evicted.size(), batch_evicted.size()) << "seed=" << seed;
    for (std::size_t j = 0; j < scalar_evicted.size(); ++j) {
      EXPECT_EQ(scalar_evicted[j].id, batch_evicted[j].id) << "seed=" << seed;
    }
    for (std::int64_t key = 0; key < 64; ++key) {
      EXPECT_EQ(scalar.count_matches(key), batched.count_matches(key))
          << "seed=" << seed << " key=" << key;
    }
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
// SIMD == scalar == serial: the dispatched kernels must be bit-identical to
// the forced-scalar reference at EVERY level the host supports (DESIGN.md
// section 13). The operator tests above already pin batch == serial at the
// default (best) level; these pin each level against scalar directly, both
// at the raw-kernel surface and through the operators.
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

/// Keys hitting every M61 reduction edge: zero, the prime itself and its
/// neighbors, 32-bit limb boundaries, and the top of the u64 range.
std::vector<std::uint64_t> m61_edge_keys() {
  constexpr std::uint64_t kP = sketch::kMersenne61;
  return {0,      1,        kP - 1,   kP,      kP + 1,  (1ull << 32) - 1,
          1ull << 32, 1ull << 61, 1ull << 62, ~0ull,   ~0ull - 1, 0xdeadbeefULL};
}

TEST(SimdIdentity, M61KernelsMatchScalarAtEveryLevel) {
  common::Xoshiro256 rng(kSeeds[1]);
  std::vector<std::uint64_t> keys = m61_edge_keys();
  while (keys.size() < 4003) keys.push_back(rng.next());  // full u64 range
  const std::size_t n = keys.size();  // odd: exercises every tail length

  sketch::FourWiseHash hash(rng);

  std::vector<std::uint64_t> sx1(n), sx2(n), sx3(n);
  std::uint64_t sparity = 0;
  {
    ForcedLevel scalar(simd::Level::kScalar);
    simd::m61_key_powers(keys.data(), n, sx1.data(), sx2.data(), sx3.data());
    sparity = simd::m61_poly_parity_sum(hash.coefficients().data(), sx1.data(),
                                        sx2.data(), sx3.data(), n);
  }
  // The scalar kernel restates KeyPowers::of; pin that too.
  for (std::size_t j = 0; j < n; ++j) {
    const sketch::KeyPowers p = sketch::KeyPowers::of(keys[j]);
    ASSERT_EQ(sx1[j], p.x1) << "j=" << j;
    ASSERT_EQ(sx2[j], p.x2) << "j=" << j;
    ASSERT_EQ(sx3[j], p.x3) << "j=" << j;
  }

  for (const simd::Level level : supported_levels()) {
    ForcedLevel forced(level);
    std::vector<std::uint64_t> x1(n), x2(n), x3(n);
    simd::m61_key_powers(keys.data(), n, x1.data(), x2.data(), x3.data());
    EXPECT_EQ(sx1, x1) << simd::level_name(level);
    EXPECT_EQ(sx2, x2) << simd::level_name(level);
    EXPECT_EQ(sx3, x3) << simd::level_name(level);
    // Every tail length in [0, 17] plus the full batch.
    for (std::size_t len = 0; len <= 17; ++len) {
      EXPECT_EQ(simd::m61_poly_parity_sum(hash.coefficients().data(), x1.data(),
                                          x2.data(), x3.data(), len),
                simd::m61_poly_parity_sum(hash.coefficients().data(), sx1.data(),
                                          sx2.data(), sx3.data(), len))
          << simd::level_name(level) << " len=" << len;
    }
    EXPECT_EQ(sparity, simd::m61_poly_parity_sum(hash.coefficients().data(),
                                                 x1.data(), x2.data(), x3.data(), n))
        << simd::level_name(level);
  }
}

TEST(SimdIdentity, FastAgmsRowKernelMatchesSerialAtEveryLevel) {
  common::Xoshiro256 rng(kSeeds[3]);
  std::vector<std::uint64_t> keys = m61_edge_keys();
  while (keys.size() < 1031) keys.push_back(rng.next());  // odd: tail shapes
  const std::size_t n = keys.size();

  sketch::FourWiseHash bucket_hash(rng);
  sketch::FourWiseHash sign_hash(rng);
  std::vector<std::uint64_t> x1(n), x2(n), x3(n);
  {
    ForcedLevel scalar(simd::Level::kScalar);
    simd::m61_key_powers(keys.data(), n, x1.data(), x2.data(), x3.data());
  }

  // Pow2 buckets exercise the vector mask path; non-pow2 the `%` fallback.
  for (const std::uint64_t buckets : {std::uint64_t{256}, std::uint64_t{250}}) {
    for (const std::int64_t weight : {std::int64_t{1}, std::int64_t{-3}}) {
      // Serial reference straight off the hash objects (the update() path).
      std::vector<std::int64_t> want(buckets, 0);
      for (const std::uint64_t key : keys) {
        want[bucket_hash.bucket(key, buckets)] += weight * sign_hash.sign(key);
      }
      // Forced-scalar references for every tail length in [0, 17].
      std::vector<std::vector<std::int64_t>> tail_refs;
      {
        ForcedLevel scalar(simd::Level::kScalar);
        for (std::size_t len = 0; len <= 17; ++len) {
          std::vector<std::int64_t> ref(buckets, 0);
          simd::fast_agms_update_row(bucket_hash.coefficients().data(),
                                     sign_hash.coefficients().data(), x1.data(),
                                     x2.data(), x3.data(), len, buckets, weight,
                                     ref.data());
          tail_refs.push_back(std::move(ref));
        }
      }
      for (const simd::Level level : supported_levels()) {
        ForcedLevel forced(level);
        std::vector<std::int64_t> row(buckets, 0);
        simd::fast_agms_update_row(bucket_hash.coefficients().data(),
                                   sign_hash.coefficients().data(), x1.data(),
                                   x2.data(), x3.data(), n, buckets, weight,
                                   row.data());
        EXPECT_EQ(want, row) << simd::level_name(level) << " buckets=" << buckets
                             << " weight=" << weight;
        for (std::size_t len = 0; len <= 17; ++len) {
          std::vector<std::int64_t> got(buckets, 0);
          simd::fast_agms_update_row(bucket_hash.coefficients().data(),
                                     sign_hash.coefficients().data(), x1.data(),
                                     x2.data(), x3.data(), len, buckets, weight,
                                     got.data());
          EXPECT_EQ(tail_refs[len], got)
              << simd::level_name(level) << " len=" << len
              << " buckets=" << buckets;
        }
      }
    }
  }
}

TEST(SimdIdentity, DftKernelsMatchScalarAtEveryLevel) {
  common::Xoshiro256 rng(kSeeds[2]);
  const std::size_t n = 1027;  // odd: vector body plus every tail shape
  std::vector<double> cr0(n), ci0(n), pr0(n), pi0(n), ur(n), ui(n);
  for (std::size_t k = 0; k < n; ++k) {
    cr0[k] = rng.next_double_in(-1e6, 1e6);
    ci0[k] = rng.next_double_in(-1e6, 1e6);
    pr0[k] = rng.next_double_in(-1.0, 1.0);
    pi0[k] = rng.next_double_in(-1.0, 1.0);
    ur[k] = rng.next_double_in(-1.0, 1.0);
    ui[k] = rng.next_double_in(-1.0, 1.0);
  }
  const double delta = rng.next_double_in(-100.0, 100.0);

  auto scr = cr0, sci = ci0, spr = pr0, spi = pi0;
  {
    ForcedLevel scalar(simd::Level::kScalar);
    simd::dft_accum_rotate(scr.data(), sci.data(), spr.data(), spi.data(),
                           ur.data(), ui.data(), n, delta);
    simd::dft_accum(scr.data(), sci.data(), spr.data(), spi.data(), n, delta);
    simd::dft_rotate(spr.data(), spi.data(), ur.data(), ui.data(), n);
  }
  for (const simd::Level level : supported_levels()) {
    ForcedLevel forced(level);
    auto cr = cr0, ci = ci0, pr = pr0, pi = pi0;
    simd::dft_accum_rotate(cr.data(), ci.data(), pr.data(), pi.data(),
                           ur.data(), ui.data(), n, delta);
    simd::dft_accum(cr.data(), ci.data(), pr.data(), pi.data(), n, delta);
    simd::dft_rotate(pr.data(), pi.data(), ur.data(), ui.data(), n);
    EXPECT_EQ(scr, cr) << simd::level_name(level);
    EXPECT_EQ(sci, ci) << simd::level_name(level);
    EXPECT_EQ(spr, pr) << simd::level_name(level);
    EXPECT_EQ(spi, pi) << simd::level_name(level);
  }
}

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
      std::uint64_t want_count = 0;
      std::vector<std::uint32_t> want_idx(len);
      std::size_t want_m = 0;
      {
        ForcedLevel scalar(simd::Level::kScalar);
        want_count = simd::match_count_scan(keys.data(), ts.data(), len,
                                            probe.key, probe.lo, probe.hi);
        want_m = simd::match_collect_scan(keys.data(), ts.data(), len,
                                          probe.key, probe.lo, probe.hi,
                                          want_idx.data());
      }
      ASSERT_EQ(want_count, want_m);
      for (const simd::Level level : supported_levels()) {
        ForcedLevel forced(level);
        EXPECT_EQ(want_count,
                  simd::match_count_scan(keys.data(), ts.data(), len, probe.key,
                                         probe.lo, probe.hi))
            << simd::level_name(level) << " len=" << len << " key=" << probe.key;
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

TEST(SimdIdentity, OperatorsMatchSerialAtEveryLevel) {
  for (const simd::Level level : supported_levels()) {
    ForcedLevel forced(level);
    common::Xoshiro256 rng(kSeeds[2]);
    const auto values = random_values(1500, rng);
    const auto keys = random_keys(1500, rng);

    // The per-tuple paths (push / update / insert) never touch the simd::
    // kernels, so the serial twin is the fixed reference at every level.
    dsp::SlidingDft dft_serial(128, 16), dft_batched(128, 16);
    for (const double v : values) dft_serial.push(v);
    dft_batched.push_batch(values);
    const auto sc = dft_serial.coefficients();
    const auto bc = dft_batched.coefficients();
    ASSERT_EQ(sc.size(), bc.size());
    for (std::size_t k = 0; k < sc.size(); ++k) {
      EXPECT_EQ(sc[k], bc[k]) << simd::level_name(level) << " k=" << k;
    }

    sketch::AgmsSketch agms_serial(sketch::AgmsShape{10, 2}, 42);
    sketch::AgmsSketch agms_batched(sketch::AgmsShape{10, 2}, 42);
    for (const std::uint64_t k : keys) agms_serial.update(k, +1);
    agms_batched.update_batch(keys, +1);
    EXPECT_EQ(agms_serial.counters(), agms_batched.counters())
        << simd::level_name(level);

    sketch::FastAgmsSketch fast_serial(5, 96, 42), fast_batched(5, 96, 42);
    for (const std::uint64_t k : keys) fast_serial.update(k, +1);
    fast_batched.update_batch(keys, +1);
    EXPECT_EQ(fast_serial.counters(), fast_batched.counters())
        << simd::level_name(level);

    sketch::CountingBloomFilter bloom_serial(384, 4, 42);
    sketch::CountingBloomFilter bloom_batched(384, 4, 42);
    for (const std::uint64_t k : keys) bloom_serial.insert(k);
    bloom_batched.insert_batch(keys);
    EXPECT_EQ(bloom_serial.counters(), bloom_batched.counters())
        << simd::level_name(level);
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
