// Summary wire codecs and per-peer summary stores.
//
// Each policy describes its window to peers with a different summary type:
// DFT coefficient deltas (DFT/DFTT), counting-Bloom snapshots (BLOOM), or
// AGMS sketches (SKCH). One SummaryBlock may carry several sub-blocks (e.g.
// both stream sides). The codecs here are shared by the policies and the
// tests; the stores hold the most recent remote state per (peer, side) and,
// for DFTT, the reconstruction cache that turns coefficients back into an
// approximate attribute multiset (Section 5.3).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "dsjoin/common/serialize.hpp"
#include "dsjoin/dsp/compression.hpp"
#include "dsjoin/dsp/histogram_spectrum.hpp"
#include "dsjoin/dsp/sliding_dft.hpp"
#include "dsjoin/sampling/estimator.hpp"
#include "dsjoin/sketch/agms.hpp"
#include "dsjoin/sketch/bloom.hpp"
#include "dsjoin/core/wire.hpp"
#include "dsjoin/stream/tuple.hpp"

namespace dsjoin::core {

/// Sub-block codecs. A sub-block starts with a one-byte tag; decode_blocks
/// dispatches until the block is exhausted.
namespace summary_codec {

inline constexpr std::uint8_t kTagDft = 'D';
inline constexpr std::uint8_t kTagBloom = 'B';
inline constexpr std::uint8_t kTagSketch = 'K';
inline constexpr std::uint8_t kTagHistSpectrum = 'H';
// Quantized counterparts (lowercase of the f64 tags, wire format v4): one
// f64 per-block scale plus int8/int16 mantissas and u16 coefficient
// indices. Decoding dequantizes and invokes the same visitor callbacks as
// the f64 forms, so receivers are format-agnostic.
inline constexpr std::uint8_t kTagDftQuant = 'd';
inline constexpr std::uint8_t kTagHistSpectrumQuant = 'h';
// Stratified-sample summary (SMPL, wire format v5). Carries its own
// version byte so the sample layout can evolve without a new tag.
inline constexpr std::uint8_t kTagSample = 'S';
// Query-scope wrapper (multi-query serving, wire format v6): the subscriber
// query ids of the summary's family plus an opaque inner block. Single-query
// runs never emit it, so their wire bytes are unchanged from v5.
inline constexpr std::uint8_t kTagQueryScope = 'Q';

/// Layout version inside a kTagSample sub-block.
inline constexpr std::uint8_t kSampleSummaryVersion = 1;

/// Appends a DFT coefficient-delta sub-block for one stream side.
void encode_dft(common::BufferWriter& out, stream::StreamSide side,
                std::uint32_t window, std::uint32_t retained,
                std::span<const dsp::CoeffDelta> deltas);

/// Appends a quantized DFT coefficient-delta sub-block: per-block f64
/// scale, u16 indices, int8/int16 component mantissas. `bits` must be 8 or
/// 16 (callers pick it via dsp::choose_quant_bits) and every delta index
/// must fit a u16; encode_dft is the fallback when either fails.
void encode_dft_quant(common::BufferWriter& out, stream::StreamSide side,
                      std::uint32_t window, std::uint32_t retained,
                      std::span<const dsp::CoeffDelta> deltas, unsigned bits,
                      double scale);

/// Appends a Bloom snapshot sub-block for one stream side.
void encode_bloom(common::BufferWriter& out, stream::StreamSide side,
                  const sketch::BloomFilter& snapshot);

/// Appends an AGMS sketch sub-block (counters as i32 on the wire, matching
/// the prototype-era budget arithmetic).
void encode_sketch(common::BufferWriter& out, stream::StreamSide side,
                   const sketch::AgmsSketch& sketch);

/// Appends a histogram-spectrum sub-block (ablation A3's summary).
void encode_hist_spectrum(common::BufferWriter& out, stream::StreamSide side,
                          std::uint32_t buckets,
                          std::span<const dsp::Complex> coeffs);

/// Quantized histogram-spectrum sub-block (dense: no indices, mantissa
/// pairs in coefficient order). `bits` must be 8 or 16.
void encode_hist_spectrum_quant(common::BufferWriter& out,
                                stream::StreamSide side, std::uint32_t buckets,
                                std::span<const dsp::Complex> coeffs,
                                unsigned bits, double scale);

/// Appends a stratified-sample sub-block for one stream side: the sampling
/// geometry plus per-key Horvitz–Thompson (weight, variance) masses in
/// strictly ascending key order (the decoder rejects anything else). At
/// most 65535 keys per sub-block (u16 count).
void encode_sample(common::BufferWriter& out, stream::StreamSide side,
                   const sampling::SampleSummary& summary);

/// Appends a query-scope wrapper around an already encoded block: the
/// strictly ascending subscriber query ids (at most kMaxQueries) followed by
/// the inner bytes. The inner block must itself be a valid sub-block
/// sequence; wrappers do not nest.
void encode_query_scope(common::BufferWriter& out,
                        std::span<const std::uint32_t> query_ids,
                        std::span<const std::uint8_t> inner);

/// Callbacks invoked per decoded sub-block.
struct Visitor {
  std::function<void(stream::StreamSide, std::uint32_t window,
                     std::uint32_t retained,
                     const std::vector<dsp::CoeffDelta>&)>
      on_dft;
  std::function<void(stream::StreamSide, sketch::BloomFilter)> on_bloom;
  std::function<void(stream::StreamSide, sketch::AgmsSketch)> on_sketch;
  std::function<void(stream::StreamSide, std::uint32_t buckets,
                     std::vector<dsp::Complex>)>
      on_hist_spectrum;
  std::function<void(stream::StreamSide, sampling::SampleSummary)> on_sample;
  std::function<void(const std::vector<std::uint32_t>& query_ids,
                     SummaryBlock inner)>
      on_query_scope;
};

/// Decodes every sub-block in `block`; unknown tags abort with kDataLoss.
common::Status decode_blocks(const SummaryBlock& block, const Visitor& visitor);

}  // namespace summary_codec

/// Sorts `values` ascending by LSD radix sort on v - min: the pass count
/// follows the range, at most 11 bits per pass (a DFTT reconstruction
/// spans two), and any range sorts. CoeffStore's reconstruction index.
void radix_sort(std::vector<std::int64_t>& values);

/// Remote DFT coefficients for one (peer, side), with a lazily rebuilt
/// reconstruction cache: the rounded inverse DFT, sorted ascending, so a
/// tolerance-window count is two binary searches.
class CoeffStore {
 public:
  CoeffStore(std::uint32_t window, std::uint32_t retained);

  /// Applies one batch of coefficient updates and invalidates the cache.
  void apply(const std::vector<dsp::CoeffDelta>& deltas);

  std::span<const dsp::Complex> coefficients() const noexcept {
    return spectrum_.coeffs;
  }
  std::uint32_t window() const noexcept { return spectrum_.window; }
  /// Total updates applied (freshness diagnostic).
  std::uint64_t updates_applied() const noexcept { return updates_; }

  /// Estimated number of window values within [key - tolerance,
  /// key + tolerance] in the reconstructed remote window. Rebuilds the
  /// reconstruction cache if coefficients changed since the last call.
  std::uint64_t estimate_count(std::int64_t key, std::int64_t tolerance);

  /// True if any summary has ever been applied.
  bool seeded() const noexcept { return updates_ > 0; }

 private:
  void rebuild();

  dsp::CompressedSpectrum spectrum_;
  std::vector<std::int64_t> sorted_;  // the reconstruction, ascending
  bool dirty_ = true;
  std::uint64_t updates_ = 0;
};

/// Latest remote Bloom snapshot per (peer, side).
class BloomStore {
 public:
  void update(sketch::BloomFilter snapshot) { snapshot_ = std::move(snapshot); }
  bool seeded() const noexcept { return snapshot_.has_value(); }
  /// Membership with integer tolerance: true if any key in
  /// [key - tolerance, key + tolerance] hits the filter.
  bool contains(std::int64_t key, std::int64_t tolerance) const;

 private:
  std::optional<sketch::BloomFilter> snapshot_;
};

/// Latest remote AGMS sketch per (peer, side).
class SketchStore {
 public:
  void update(sketch::AgmsSketch sketch) { sketch_ = std::move(sketch); }
  bool seeded() const noexcept { return sketch_.has_value(); }
  const sketch::AgmsSketch* sketch() const noexcept {
    return sketch_ ? &*sketch_ : nullptr;
  }

 private:
  std::optional<sketch::AgmsSketch> sketch_;
};

/// Latest remote stratified-sample summary per (peer, side).
class SampleStore {
 public:
  void update(sampling::SampleSummary summary) {
    summary_ = std::move(summary);
  }
  bool seeded() const noexcept { return summary_.has_value(); }
  const sampling::SampleSummary* summary() const noexcept {
    return summary_ ? &*summary_ : nullptr;
  }

 private:
  std::optional<sampling::SampleSummary> summary_;
};

}  // namespace dsjoin::core
