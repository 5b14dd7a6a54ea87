#include "dsjoin/core/summary_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/dsp/fft.hpp"

namespace dsjoin::core {
namespace {

using stream::StreamSide;

TEST(SummaryCodec, DftRoundTrip) {
  common::BufferWriter w;
  std::vector<dsp::CoeffDelta> deltas{
      {0, dsp::Complex(1.5, -2.5)}, {3, dsp::Complex(0.0, 4.0)}};
  summary_codec::encode_dft(w, StreamSide::kS, 2048, 8, deltas);

  bool visited = false;
  summary_codec::Visitor visitor;
  visitor.on_dft = [&](StreamSide side, std::uint32_t window,
                       std::uint32_t retained,
                       const std::vector<dsp::CoeffDelta>& decoded) {
    visited = true;
    EXPECT_EQ(side, StreamSide::kS);
    EXPECT_EQ(window, 2048u);
    EXPECT_EQ(retained, 8u);
    ASSERT_EQ(decoded.size(), 2u);
    EXPECT_EQ(decoded[0].index, 0u);
    EXPECT_EQ(decoded[0].value, dsp::Complex(1.5, -2.5));
    EXPECT_EQ(decoded[1].index, 3u);
  };
  SummaryBlock block{std::move(w).take()};
  ASSERT_TRUE(summary_codec::decode_blocks(block, visitor));
  EXPECT_TRUE(visited);
}

TEST(SummaryCodec, MultipleSubBlocksDecodeInOrder) {
  common::BufferWriter w;
  summary_codec::encode_dft(w, StreamSide::kR, 64, 4, {});
  sketch::CountingBloomFilter counting(512, 3, 5);
  counting.insert(42);
  summary_codec::encode_bloom(w, StreamSide::kS, counting.snapshot());
  sketch::AgmsSketch agms(sketch::AgmsShape{5, 1}, 9);
  agms.update(7);
  summary_codec::encode_sketch(w, StreamSide::kR, agms);

  int dft = 0, bloom = 0, sk = 0;
  summary_codec::Visitor visitor;
  visitor.on_dft = [&](auto, auto, auto, const auto&) { ++dft; };
  visitor.on_bloom = [&](StreamSide side, sketch::BloomFilter filter) {
    ++bloom;
    EXPECT_EQ(side, StreamSide::kS);
    EXPECT_TRUE(filter.contains(42));
  };
  visitor.on_sketch = [&](StreamSide side, sketch::AgmsSketch decoded) {
    ++sk;
    EXPECT_EQ(side, StreamSide::kR);
    EXPECT_EQ(decoded.counters(), agms.counters());
  };
  SummaryBlock block{std::move(w).take()};
  ASSERT_TRUE(summary_codec::decode_blocks(block, visitor));
  EXPECT_EQ(dft, 1);
  EXPECT_EQ(bloom, 1);
  EXPECT_EQ(sk, 1);
}

TEST(SummaryCodec, QuantDftRoundTripWithinStepBound) {
  // Encode at both widths; decoded values must sit within half a
  // quantization step of the originals and re-encoding must be
  // byte-identical (determinism is what backend parity rests on).
  std::vector<dsp::CoeffDelta> deltas{
      {0, dsp::Complex(1200.5, -300.25)},
      {3, dsp::Complex(0.0, 987.125)},
      {65535, dsp::Complex(-1250.0, 1.0)}};
  std::vector<dsp::Complex> values;
  for (const auto& d : deltas) values.push_back(d.value);
  const double scale = dsp::quant_scale(values);
  for (unsigned bits : {8u, 16u}) {
    const double step = scale / dsp::quant_mantissa_max(bits);
    common::BufferWriter w;
    summary_codec::encode_dft_quant(w, StreamSide::kR, 2048, 8, deltas, bits,
                                    scale);
    const auto bytes = std::move(w).take();
    // 10-byte header + u8 bits + f64 scale + u16 count, then
    // (u16 index + 2 mantissas) per delta.
    const std::size_t per = 2 + 2 * (bits / 8);
    EXPECT_EQ(bytes.size(), 1 + 1 + 4 + 4 + 1 + 8 + 2 + deltas.size() * per);

    common::BufferWriter again;
    summary_codec::encode_dft_quant(again, StreamSide::kR, 2048, 8, deltas,
                                    bits, scale);
    EXPECT_EQ(bytes, std::move(again).take());

    bool visited = false;
    summary_codec::Visitor visitor;
    visitor.on_dft = [&](StreamSide side, std::uint32_t window,
                         std::uint32_t retained,
                         const std::vector<dsp::CoeffDelta>& decoded) {
      visited = true;
      EXPECT_EQ(side, StreamSide::kR);
      EXPECT_EQ(window, 2048u);
      EXPECT_EQ(retained, 8u);
      ASSERT_EQ(decoded.size(), deltas.size());
      for (std::size_t i = 0; i < deltas.size(); ++i) {
        EXPECT_EQ(decoded[i].index, deltas[i].index);
        EXPECT_LE(std::abs(decoded[i].value.real() - deltas[i].value.real()),
                  0.5 * step * (1 + 1e-9));
        EXPECT_LE(std::abs(decoded[i].value.imag() - deltas[i].value.imag()),
                  0.5 * step * (1 + 1e-9));
      }
    };
    ASSERT_TRUE(summary_codec::decode_blocks(SummaryBlock{bytes}, visitor));
    EXPECT_TRUE(visited);
  }
}

TEST(SummaryCodec, QuantHistSpectrumRoundTrip) {
  std::vector<dsp::Complex> coeffs{{512.0, -64.0}, {0.0, 0.0}, {-17.5, 3.25}};
  const double scale = dsp::quant_scale(coeffs);
  for (unsigned bits : {8u, 16u}) {
    const double step = scale / dsp::quant_mantissa_max(bits);
    common::BufferWriter w;
    summary_codec::encode_hist_spectrum_quant(w, StreamSide::kS, 4096, coeffs,
                                              bits, scale);
    bool visited = false;
    summary_codec::Visitor visitor;
    visitor.on_hist_spectrum = [&](StreamSide side, std::uint32_t buckets,
                                   std::vector<dsp::Complex> decoded) {
      visited = true;
      EXPECT_EQ(side, StreamSide::kS);
      EXPECT_EQ(buckets, 4096u);
      ASSERT_EQ(decoded.size(), coeffs.size());
      for (std::size_t i = 0; i < coeffs.size(); ++i) {
        EXPECT_LE(std::abs(decoded[i] - coeffs[i]),
                  std::sqrt(2.0) * 0.5 * step * (1 + 1e-9));
      }
    };
    ASSERT_TRUE(
        summary_codec::decode_blocks(SummaryBlock{std::move(w).take()}, visitor));
    EXPECT_TRUE(visited);
  }
}

TEST(SummaryCodec, QuantZeroScaleDecodesToExactZeros) {
  std::vector<dsp::CoeffDelta> deltas{{2, dsp::Complex(0.0, 0.0)}};
  common::BufferWriter w;
  summary_codec::encode_dft_quant(w, StreamSide::kR, 64, 4, deltas, 16, 0.0);
  summary_codec::Visitor visitor;
  visitor.on_dft = [&](StreamSide, std::uint32_t, std::uint32_t,
                       const std::vector<dsp::CoeffDelta>& decoded) {
    ASSERT_EQ(decoded.size(), 1u);
    EXPECT_EQ(decoded[0].value, dsp::Complex(0.0, 0.0));
  };
  ASSERT_TRUE(
      summary_codec::decode_blocks(SummaryBlock{std::move(w).take()}, visitor));
}

TEST(SummaryCodec, QuantRejectsBadWidthAndScale) {
  // Valid frame, then surgically corrupt the width / scale fields.
  std::vector<dsp::CoeffDelta> deltas{{1, dsp::Complex(2.0, -2.0)}};
  common::BufferWriter w;
  summary_codec::encode_dft_quant(w, StreamSide::kR, 64, 4, deltas, 8, 2.0);
  const auto clean = std::move(w).take();
  constexpr std::size_t kBitsOff = 1 + 1 + 4 + 4;  // tag, side, window, retained
  constexpr std::size_t kScaleOff = kBitsOff + 1;

  auto bad_bits = clean;
  bad_bits[kBitsOff] = 12;
  EXPECT_FALSE(summary_codec::decode_blocks(SummaryBlock{bad_bits}, {}).is_ok());

  for (double bad : {std::nan(""), -1.0,
                     std::numeric_limits<double>::infinity()}) {
    auto bad_scale = clean;
    std::uint64_t raw = 0;
    std::memcpy(&raw, &bad, sizeof(raw));
    for (std::size_t b = 0; b < 8; ++b) {
      bad_scale[kScaleOff + b] = static_cast<std::uint8_t>(raw >> (8 * b));
    }
    EXPECT_FALSE(
        summary_codec::decode_blocks(SummaryBlock{bad_scale}, {}).is_ok())
        << "scale=" << bad;
  }

  auto truncated = clean;
  truncated.resize(truncated.size() - 1);
  EXPECT_FALSE(
      summary_codec::decode_blocks(SummaryBlock{truncated}, {}).is_ok());
}

TEST(SummaryCodec, RejectsNonFiniteF64Coefficients) {
  const double inf = std::numeric_limits<double>::infinity();
  for (double bad : {std::nan(""), inf, -inf}) {
    for (const dsp::Complex value :
         {dsp::Complex(bad, 1.0), dsp::Complex(1.0, bad)}) {
      bool visited = false;
      summary_codec::Visitor visitor;
      visitor.on_dft = [&](StreamSide, std::uint32_t, std::uint32_t,
                           const std::vector<dsp::CoeffDelta>&) {
        visited = true;
      };
      visitor.on_hist_spectrum = [&](StreamSide, std::uint32_t,
                                     std::vector<dsp::Complex>) {
        visited = true;
      };

      common::BufferWriter dft;
      const std::vector<dsp::CoeffDelta> deltas{
          {0, dsp::Complex(3.0, 0.0)}, {1, value}};
      summary_codec::encode_dft(dft, StreamSide::kR, 64, 4, deltas);
      EXPECT_FALSE(summary_codec::decode_blocks(
                       SummaryBlock{std::move(dft).take()}, visitor)
                       .is_ok())
          << "dft " << value;

      common::BufferWriter hist;
      const std::vector<dsp::Complex> coeffs{dsp::Complex(3.0, 0.0), value};
      summary_codec::encode_hist_spectrum(hist, StreamSide::kS, 16, coeffs);
      EXPECT_FALSE(summary_codec::decode_blocks(
                       SummaryBlock{std::move(hist).take()}, visitor)
                       .is_ok())
          << "hist " << value;
      EXPECT_FALSE(visited) << value;
    }
  }
}

TEST(SummaryCodec, RejectsUnknownTag) {
  SummaryBlock block;
  block.bytes = {0x5a, 0x00};
  EXPECT_FALSE(summary_codec::decode_blocks(block, {}).is_ok());
}

TEST(SummaryCodec, RejectsBadSide) {
  SummaryBlock block;
  block.bytes = {summary_codec::kTagDft, 0x07};
  EXPECT_FALSE(summary_codec::decode_blocks(block, {}).is_ok());
}

TEST(SummaryCodec, RejectsTruncatedDft) {
  common::BufferWriter w;
  summary_codec::encode_dft(w, StreamSide::kR, 64, 4,
                            {{dsp::CoeffDelta{1, dsp::Complex(1, 1)}}});
  auto bytes = std::move(w).take();
  bytes.resize(bytes.size() - 4);
  SummaryBlock block{std::move(bytes)};
  EXPECT_FALSE(summary_codec::decode_blocks(block, {}).is_ok());
}

TEST(SummaryCodec, EmptyBlockIsOk) {
  EXPECT_TRUE(summary_codec::decode_blocks(SummaryBlock{}, {}).is_ok());
}

sampling::SampleSummary sample_summary_fixture() {
  sampling::SampleSummary summary;
  summary.strata = 8;
  summary.capacity = 128;
  summary.population = 1000;
  summary.keys = {{-40, 2.5, 0.75}, {7, 12.0, 0.0}, {900, 1.0, 4.0}};
  return summary;
}

TEST(SummaryCodec, SampleRoundTrip) {
  common::BufferWriter w;
  const auto original = sample_summary_fixture();
  summary_codec::encode_sample(w, StreamSide::kS, original);

  bool visited = false;
  summary_codec::Visitor visitor;
  visitor.on_sample = [&](StreamSide side, sampling::SampleSummary decoded) {
    visited = true;
    EXPECT_EQ(side, StreamSide::kS);
    EXPECT_EQ(decoded.strata, original.strata);
    EXPECT_EQ(decoded.capacity, original.capacity);
    EXPECT_EQ(decoded.population, original.population);
    ASSERT_EQ(decoded.keys.size(), original.keys.size());
    for (std::size_t i = 0; i < decoded.keys.size(); ++i) {
      EXPECT_EQ(decoded.keys[i].key, original.keys[i].key);
      EXPECT_DOUBLE_EQ(decoded.keys[i].weight, original.keys[i].weight);
      EXPECT_DOUBLE_EQ(decoded.keys[i].variance, original.keys[i].variance);
    }
  };
  SummaryBlock block{std::move(w).take()};
  ASSERT_TRUE(summary_codec::decode_blocks(block, visitor));
  EXPECT_TRUE(visited);
}

TEST(SummaryCodec, SampleRejectsHostileFields) {
  common::BufferWriter w;
  summary_codec::encode_sample(w, StreamSide::kR, sample_summary_fixture());
  const auto clean = std::move(w).take();
  ASSERT_TRUE(
      summary_codec::decode_blocks(SummaryBlock{clean}, {}).is_ok());

  // In-block layout: tag(1) side(1) version(1) strata(4) capacity(4)
  // population(8) count(2), then (key i64, weight f64, variance f64) each.
  constexpr std::size_t kVersionOff = 2;
  constexpr std::size_t kStrataOff = 3;
  constexpr std::size_t kCapacityOff = 7;
  constexpr std::size_t kPopulationOff = 11;
  constexpr std::size_t kEntriesOff = 21;

  const auto expect_rejected = [&](std::size_t at, std::uint8_t with,
                                   const char* what) {
    auto bad = clean;
    bad[at] = with;
    EXPECT_FALSE(summary_codec::decode_blocks(SummaryBlock{bad}, {}).is_ok())
        << what;
  };
  expect_rejected(kVersionOff, 9, "future version");
  expect_rejected(kStrataOff + 2, 0xff, "strata out of range");
  expect_rejected(kCapacityOff + 3, 0xff, "capacity out of range");
  expect_rejected(kPopulationOff + 7, 0xff, "population out of range");
  // Zero geometry: strata and capacity are single-byte little-endian here.
  expect_rejected(kStrataOff, 0, "zero strata");
  expect_rejected(kCapacityOff, 0, "zero capacity");
  // Break key ordering: raise the first key above the second (-40 -> huge).
  expect_rejected(kEntriesOff + 7, 0x7f, "keys not ascending");

  // NaN / negative masses.
  const auto expect_bad_mass = [&](std::size_t f64_at, double value) {
    auto bad = clean;
    std::uint64_t raw = 0;
    std::memcpy(&raw, &value, sizeof(raw));
    for (std::size_t b = 0; b < 8; ++b) {
      bad[f64_at + b] = static_cast<std::uint8_t>(raw >> (8 * b));
    }
    EXPECT_FALSE(summary_codec::decode_blocks(SummaryBlock{bad}, {}).is_ok())
        << value;
  };
  constexpr std::size_t kFirstWeightOff = kEntriesOff + 8;
  constexpr std::size_t kFirstVarianceOff = kEntriesOff + 16;
  expect_bad_mass(kFirstWeightOff, std::nan(""));
  expect_bad_mass(kFirstWeightOff, -1.0);
  expect_bad_mass(kFirstVarianceOff,
                  std::numeric_limits<double>::infinity());

  // Every truncation must fail loudly, never decode a partial sample.
  for (std::size_t cut = 1; cut < clean.size(); ++cut) {
    auto truncated = clean;
    truncated.resize(clean.size() - cut);
    EXPECT_FALSE(
        summary_codec::decode_blocks(SummaryBlock{truncated}, {}).is_ok())
        << "cut " << cut;
  }
}

TEST(SampleStore, UnseededThenHoldsLatest) {
  SampleStore store;
  EXPECT_FALSE(store.seeded());
  EXPECT_EQ(store.summary(), nullptr);
  store.update(sample_summary_fixture());
  ASSERT_TRUE(store.seeded());
  EXPECT_EQ(store.summary()->population, 1000u);
  auto newer = sample_summary_fixture();
  newer.population = 2000;
  store.update(std::move(newer));
  EXPECT_EQ(store.summary()->population, 2000u);
}

TEST(CoeffStore, StartsUnseeded) {
  CoeffStore store(64, 8);
  EXPECT_FALSE(store.seeded());
  EXPECT_EQ(store.estimate_count(5, 2), 0u);
}

TEST(CoeffStore, ReconstructsAppliedSpectrum) {
  // Build a real spectrum for a constant-100 window; apply it as deltas;
  // every estimate near 100 must see the full window.
  constexpr std::uint32_t kW = 64;
  std::vector<double> signal(kW, 100.0);
  dsp::Fft fft(kW);
  const auto spectrum = fft.forward_real(signal);
  CoeffStore store(kW, 8);
  std::vector<dsp::CoeffDelta> deltas;
  for (std::uint32_t k = 0; k < 8; ++k) {
    deltas.push_back(dsp::CoeffDelta{k, spectrum[k]});
  }
  store.apply(deltas);
  EXPECT_TRUE(store.seeded());
  EXPECT_EQ(store.estimate_count(100, 0), kW);
  EXPECT_EQ(store.estimate_count(100, 5), kW);
  EXPECT_EQ(store.estimate_count(200, 5), 0u);
}

TEST(CoeffStore, ToleranceWidensMatches) {
  // Ramp 0..63 reconstructed from the full half-spectrum: estimates around
  // key k with tolerance t must count ~2t+1 values.
  constexpr std::uint32_t kW = 64;
  std::vector<double> signal(kW);
  for (std::uint32_t i = 0; i < kW; ++i) signal[i] = i;
  dsp::Fft fft(kW);
  const auto spectrum = fft.forward_real(signal);
  CoeffStore store(kW, kW / 2 + 1);
  std::vector<dsp::CoeffDelta> deltas;
  for (std::uint32_t k = 0; k < kW / 2 + 1; ++k) {
    deltas.push_back(dsp::CoeffDelta{k, spectrum[k]});
  }
  store.apply(deltas);
  const auto narrow = store.estimate_count(32, 1);
  const auto wide = store.estimate_count(32, 8);
  EXPECT_GT(wide, narrow);
  EXPECT_GE(narrow, 2u);
  EXPECT_LE(wide, 20u);
}

TEST(CoeffStore, IgnoresOutOfRangeIndices) {
  CoeffStore store(64, 4);
  store.apply({dsp::CoeffDelta{99, dsp::Complex(1, 1)}});
  EXPECT_FALSE(store.seeded());
}

TEST(CoeffStore, UpdatesInvalidateCache) {
  constexpr std::uint32_t kW = 32;
  CoeffStore store(kW, 1);
  // DC for constant 10: X0 = 320.
  store.apply({dsp::CoeffDelta{0, dsp::Complex(320, 0)}});
  EXPECT_EQ(store.estimate_count(10, 0), kW);
  // Move the window to constant 20.
  store.apply({dsp::CoeffDelta{0, dsp::Complex(640, 0)}});
  EXPECT_EQ(store.estimate_count(10, 0), 0u);
  EXPECT_EQ(store.estimate_count(20, 0), kW);
  EXPECT_EQ(store.updates_applied(), 2u);
}

// radix_sort must agree with std::sort whatever the range: a few passes
// for narrow windows, four for a 2^40 range, six for the full int64 span,
// with negative keys included.
TEST(RadixSort, MatchesStdSort) {
  common::Xoshiro256 rng(91);
  const auto check = [](std::vector<std::int64_t> values) {
    auto want = values;
    std::sort(want.begin(), want.end());
    radix_sort(values);
    ASSERT_EQ(values, want);
  };
  check({});
  check({-5});
  check(std::vector<std::int64_t>(100, 7));
  for (const std::int64_t span :
       {std::int64_t{1}, std::int64_t{2}, std::int64_t{300},
        std::int64_t{1} << 11, std::int64_t{600'000}, std::int64_t{1} << 40}) {
    for (const std::int64_t offset :
         {std::int64_t{0}, -span / 2, std::int64_t{-1} << 50,
          std::int64_t{5'000}}) {
      for (const std::size_t n : {std::size_t{2}, std::size_t{33}, std::size_t{2048}}) {
        std::vector<std::int64_t> values(n);
        for (auto& v : values) {
          v = offset + static_cast<std::int64_t>(
                           rng.next_below(static_cast<std::uint64_t>(span) + 1));
        }
        check(values);
      }
    }
  }
  std::vector<std::int64_t> extremes(64);
  for (auto& v : extremes) v = static_cast<std::int64_t>(rng.next());
  extremes[3] = std::numeric_limits<std::int64_t>::min();
  extremes[9] = std::numeric_limits<std::int64_t>::max();
  check(extremes);
}

// estimate_count must equal a brute-force count over the rounded
// reconstruction, whatever the shape of the window.
void expect_estimates_match_brute_force(std::uint32_t window,
                                        const std::vector<dsp::Complex>& coeffs,
                                        std::uint64_t seed) {
  CoeffStore store(window, static_cast<std::uint32_t>(coeffs.size()));
  std::vector<dsp::CoeffDelta> deltas;
  for (std::uint32_t k = 0; k < coeffs.size(); ++k) {
    deltas.push_back(dsp::CoeffDelta{k, coeffs[k]});
  }
  store.apply(deltas);
  dsp::CompressedSpectrum spectrum;
  spectrum.window = window;
  spectrum.coeffs = coeffs;
  std::vector<std::int64_t> values;
  dsp::reconstruct_rounded(spectrum, values);
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  const auto span = static_cast<std::uint64_t>(*hi - *lo) + 81;
  common::Xoshiro256 rng(seed);
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t key =
        *lo - 40 + static_cast<std::int64_t>(rng.next_below(span));
    for (std::int64_t tolerance : {-1, 0, 1, 32}) {
      const auto expected = static_cast<std::uint64_t>(
          std::count_if(values.begin(), values.end(), [&](std::int64_t v) {
            return v >= key - tolerance && v <= key + tolerance;
          }));
      ASSERT_EQ(store.estimate_count(key, tolerance), expected)
          << "key " << key << " tolerance " << tolerance;
    }
  }
}

TEST(CoeffStore, EstimatesMatchBruteForceCount) {
  constexpr std::uint32_t kW = 2048;
  common::Xoshiro256 rng(77);
  // Random K = 8 spectra: DFTT's default geometry (W / kappa = 8). The
  // low-amplitude ones round to long plateaus between direction changes.
  for (double amplitude : {300.0, 300.0, 300.0, 3.0}) {
    std::vector<dsp::Complex> coeffs(8);
    coeffs[0] = dsp::Complex(kW * rng.next_double_in(1000.0, 9000.0), 0.0);
    for (std::size_t k = 1; k < coeffs.size(); ++k) {
      coeffs[k] = dsp::Complex(kW * rng.next_double_in(-amplitude, amplitude),
                               kW * rng.next_double_in(-amplitude, amplitude));
    }
    expect_estimates_match_brute_force(kW, coeffs, rng.next());
  }
  // A constant window: one value, W times.
  std::vector<dsp::Complex> constant(8, dsp::Complex{});
  constant[0] = dsp::Complex(kW * 4321.0, 0.0);
  expect_estimates_match_brute_force(kW, constant, 200);
  // K = W/2 + 1: the whole half-spectrum of a random window, so the
  // reconstruction has hundreds of monotone runs.
  std::vector<double> signal(kW);
  for (auto& v : signal) v = rng.next_double_in(0.0, 10000.0);
  const auto full = dsp::Fft(kW).forward_real(signal);
  expect_estimates_match_brute_force(
      kW, std::vector<dsp::Complex>(full.begin(), full.begin() + kW / 2 + 1),
      300);
}

TEST(BloomStore, UnseededContainsNothing) {
  BloomStore store;
  EXPECT_FALSE(store.seeded());
  EXPECT_FALSE(store.contains(5, 3));
}

TEST(BloomStore, ToleranceScansNeighbourhood) {
  sketch::BloomFilter filter(4096, 3, 1);
  filter.insert(100);
  BloomStore store;
  store.update(std::move(filter));
  EXPECT_TRUE(store.seeded());
  EXPECT_TRUE(store.contains(100, 0));
  EXPECT_TRUE(store.contains(98, 2));
  EXPECT_FALSE(store.contains(90, 2));
}

TEST(SketchStore, HoldsLatestSketch) {
  SketchStore store;
  EXPECT_FALSE(store.seeded());
  EXPECT_EQ(store.sketch(), nullptr);
  sketch::AgmsSketch sketch(sketch::AgmsShape{5, 1}, 3);
  sketch.update(9);
  store.update(std::move(sketch));
  ASSERT_TRUE(store.seeded());
  EXPECT_DOUBLE_EQ(store.sketch()->estimate_self_join(), 1.0);
}

}  // namespace
}  // namespace dsjoin::core
