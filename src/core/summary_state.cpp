#include "dsjoin/core/summary_state.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <utility>

#include "dsjoin/core/config.hpp"

namespace dsjoin::core {

namespace summary_codec {

void encode_dft(common::BufferWriter& out, stream::StreamSide side,
                std::uint32_t window, std::uint32_t retained,
                std::span<const dsp::CoeffDelta> deltas) {
  out.write_u8(kTagDft);
  out.write_u8(static_cast<std::uint8_t>(side));
  out.write_u32(window);
  out.write_u32(retained);
  out.write_u16(static_cast<std::uint16_t>(deltas.size()));
  for (const auto& d : deltas) {
    out.write_u32(d.index);
    out.write_f64(d.value.real());
    out.write_f64(d.value.imag());
  }
}

void encode_dft_quant(common::BufferWriter& out, stream::StreamSide side,
                      std::uint32_t window, std::uint32_t retained,
                      std::span<const dsp::CoeffDelta> deltas, unsigned bits,
                      double scale) {
  assert(bits == 8 || bits == 16);
  out.write_u8(kTagDftQuant);
  out.write_u8(static_cast<std::uint8_t>(side));
  out.write_u32(window);
  out.write_u32(retained);
  out.write_u8(static_cast<std::uint8_t>(bits));
  out.write_f64(scale);
  out.write_u16(static_cast<std::uint16_t>(deltas.size()));
  for (const auto& d : deltas) {
    assert(d.index <= 0xffff);
    out.write_u16(static_cast<std::uint16_t>(d.index));
    const std::int32_t re = dsp::quantize_component(d.value.real(), scale, bits);
    const std::int32_t im = dsp::quantize_component(d.value.imag(), scale, bits);
    if (bits == 8) {
      out.write_u8(static_cast<std::uint8_t>(static_cast<std::int8_t>(re)));
      out.write_u8(static_cast<std::uint8_t>(static_cast<std::int8_t>(im)));
    } else {
      out.write_u16(static_cast<std::uint16_t>(static_cast<std::int16_t>(re)));
      out.write_u16(static_cast<std::uint16_t>(static_cast<std::int16_t>(im)));
    }
  }
}

void encode_bloom(common::BufferWriter& out, stream::StreamSide side,
                  const sketch::BloomFilter& snapshot) {
  out.write_u8(kTagBloom);
  out.write_u8(static_cast<std::uint8_t>(side));
  snapshot.serialize(out);
}

void encode_sketch(common::BufferWriter& out, stream::StreamSide side,
                   const sketch::AgmsSketch& sketch) {
  out.write_u8(kTagSketch);
  out.write_u8(static_cast<std::uint8_t>(side));
  out.write_u32(sketch.shape().s0);
  out.write_u32(sketch.shape().s1);
  out.write_u64(sketch.seed());
  for (std::int64_t c : sketch.counters()) {
    out.write_u32(static_cast<std::uint32_t>(static_cast<std::int32_t>(c)));
  }
}

void encode_hist_spectrum(common::BufferWriter& out, stream::StreamSide side,
                          std::uint32_t buckets,
                          std::span<const dsp::Complex> coeffs) {
  out.write_u8(kTagHistSpectrum);
  out.write_u8(static_cast<std::uint8_t>(side));
  out.write_u32(buckets);
  out.write_u16(static_cast<std::uint16_t>(coeffs.size()));
  for (const auto& c : coeffs) {
    out.write_f64(c.real());
    out.write_f64(c.imag());
  }
}

void encode_hist_spectrum_quant(common::BufferWriter& out,
                                stream::StreamSide side, std::uint32_t buckets,
                                std::span<const dsp::Complex> coeffs,
                                unsigned bits, double scale) {
  assert(bits == 8 || bits == 16);
  out.write_u8(kTagHistSpectrumQuant);
  out.write_u8(static_cast<std::uint8_t>(side));
  out.write_u32(buckets);
  out.write_u8(static_cast<std::uint8_t>(bits));
  out.write_f64(scale);
  out.write_u16(static_cast<std::uint16_t>(coeffs.size()));
  for (const auto& c : coeffs) {
    const std::int32_t re = dsp::quantize_component(c.real(), scale, bits);
    const std::int32_t im = dsp::quantize_component(c.imag(), scale, bits);
    if (bits == 8) {
      out.write_u8(static_cast<std::uint8_t>(static_cast<std::int8_t>(re)));
      out.write_u8(static_cast<std::uint8_t>(static_cast<std::int8_t>(im)));
    } else {
      out.write_u16(static_cast<std::uint16_t>(static_cast<std::int16_t>(re)));
      out.write_u16(static_cast<std::uint16_t>(static_cast<std::int16_t>(im)));
    }
  }
}

void encode_query_scope(common::BufferWriter& out,
                        std::span<const std::uint32_t> query_ids,
                        std::span<const std::uint8_t> inner) {
  assert(!query_ids.empty() && query_ids.size() <= kMaxQueries);
  out.write_u8(kTagQueryScope);
  out.write_u8(static_cast<std::uint8_t>(query_ids.size()));
  for (std::uint32_t id : query_ids) out.write_u32(id);
  out.write_bytes(inner);
}

void encode_sample(common::BufferWriter& out, stream::StreamSide side,
                   const sampling::SampleSummary& summary) {
  assert(summary.keys.size() <= 0xffff);
  out.write_u8(kTagSample);
  out.write_u8(static_cast<std::uint8_t>(side));
  out.write_u8(kSampleSummaryVersion);
  out.write_u32(summary.strata);
  out.write_u32(summary.capacity);
  out.write_u64(summary.population);
  out.write_u16(static_cast<std::uint16_t>(summary.keys.size()));
  for (const auto& mass : summary.keys) {
    out.write_i64(mass.key);
    out.write_f64(mass.weight);
    out.write_f64(mass.variance);
  }
}

namespace {

// Shared validation for the quantized sub-blocks: width and scale must be
// plausible before any mantissa is trusted (a hostile scale would otherwise
// smuggle inf/NaN into the coefficient stores past the f64 path's checks).
common::Status read_quant_header(common::BufferReader& in, unsigned& bits,
                                 double& scale) {
  auto b = in.read_u8();
  if (!b) return b.status();
  if (b.value() != 8 && b.value() != 16) {
    return common::Status(common::ErrorCode::kDataLoss,
                          "bad quantization width");
  }
  auto s = in.read_f64();
  if (!s) return s.status();
  if (!std::isfinite(s.value()) || s.value() < 0.0) {
    return common::Status(common::ErrorCode::kDataLoss,
                          "bad quantization scale");
  }
  bits = b.value();
  scale = s.value();
  return common::Status::ok();
}

// Reads one mantissa pair and dequantizes it.
common::Result<dsp::Complex> read_quant_pair(common::BufferReader& in,
                                             unsigned bits, double scale) {
  std::int32_t re = 0, im = 0;
  if (bits == 8) {
    auto r = in.read_u8();
    if (!r) return r.status();
    auto i = in.read_u8();
    if (!i) return i.status();
    re = static_cast<std::int8_t>(r.value());
    im = static_cast<std::int8_t>(i.value());
  } else {
    auto r = in.read_u16();
    if (!r) return r.status();
    auto i = in.read_u16();
    if (!i) return i.status();
    re = static_cast<std::int16_t>(r.value());
    im = static_cast<std::int16_t>(i.value());
  }
  return dsp::Complex(dsp::dequantize_component(re, scale, bits),
                      dsp::dequantize_component(im, scale, bits));
}

// The f64 coefficient forms must carry finite values, like the quantized
// forms and the sample masses: the transforms that read them are bit-exact
// only on finite inputs, and llround of a NaN is unspecified.
common::Status non_finite_coefficient() {
  return common::Status(common::ErrorCode::kDataLoss,
                        "non-finite summary coefficient");
}

}  // namespace

common::Status decode_blocks(const SummaryBlock& block, const Visitor& visitor) {
  common::BufferReader in(block.bytes);
  while (!in.exhausted()) {
    auto tag = in.read_u8();
    if (!tag) return tag.status();
    if (tag.value() == kTagQueryScope) {
      // Wrapper sub-block: no side byte; the inner block is opaque here and
      // handed to the visitor whole (it decodes it with its own visitor —
      // wrappers do not nest).
      auto count = in.read_u8();
      if (!count) return count.status();
      if (count.value() == 0 || count.value() > kMaxQueries) {
        return common::Status(common::ErrorCode::kDataLoss,
                              "bad query-scope id count");
      }
      std::vector<std::uint32_t> ids;
      ids.reserve(count.value());
      for (std::uint8_t i = 0; i < count.value(); ++i) {
        auto id = in.read_u32();
        if (!id) return id.status();
        // Canonical form: strictly ascending, so subscriber sets have one
        // wire representation.
        if (!ids.empty() && id.value() <= ids.back()) {
          return common::Status(common::ErrorCode::kDataLoss,
                                "query-scope ids not strictly ascending");
        }
        ids.push_back(id.value());
      }
      auto inner = in.read_bytes();
      if (!inner) return inner.status();
      if (visitor.on_query_scope) {
        visitor.on_query_scope(ids, SummaryBlock{std::move(inner).value()});
      }
      continue;
    }
    auto side_raw = in.read_u8();
    if (!side_raw) return side_raw.status();
    if (side_raw.value() > 1) {
      return common::Status(common::ErrorCode::kDataLoss, "bad summary side");
    }
    const auto side = static_cast<stream::StreamSide>(side_raw.value());

    switch (tag.value()) {
      case kTagDft: {
        auto window = in.read_u32();
        if (!window) return window.status();
        auto retained = in.read_u32();
        if (!retained) return retained.status();
        auto count = in.read_u16();
        if (!count) return count.status();
        std::vector<dsp::CoeffDelta> deltas;
        deltas.reserve(count.value());
        for (std::uint16_t i = 0; i < count.value(); ++i) {
          auto idx = in.read_u32();
          if (!idx) return idx.status();
          auto re = in.read_f64();
          if (!re) return re.status();
          auto im = in.read_f64();
          if (!im) return im.status();
          if (!std::isfinite(re.value()) || !std::isfinite(im.value())) {
            return non_finite_coefficient();
          }
          deltas.push_back(dsp::CoeffDelta{
              idx.value(), dsp::Complex(re.value(), im.value())});
        }
        if (visitor.on_dft) {
          visitor.on_dft(side, window.value(), retained.value(), deltas);
        }
        break;
      }
      case kTagDftQuant: {
        auto window = in.read_u32();
        if (!window) return window.status();
        auto retained = in.read_u32();
        if (!retained) return retained.status();
        unsigned bits = 0;
        double scale = 0.0;
        if (auto st = read_quant_header(in, bits, scale); !st.is_ok()) return st;
        auto count = in.read_u16();
        if (!count) return count.status();
        std::vector<dsp::CoeffDelta> deltas;
        deltas.reserve(count.value());
        for (std::uint16_t i = 0; i < count.value(); ++i) {
          auto idx = in.read_u16();
          if (!idx) return idx.status();
          auto v = read_quant_pair(in, bits, scale);
          if (!v) return v.status();
          deltas.push_back(dsp::CoeffDelta{idx.value(), v.value()});
        }
        if (visitor.on_dft) {
          visitor.on_dft(side, window.value(), retained.value(), deltas);
        }
        break;
      }
      case kTagBloom: {
        auto filter = sketch::BloomFilter::deserialize(in);
        if (!filter) return filter.status();
        if (visitor.on_bloom) visitor.on_bloom(side, std::move(filter).value());
        break;
      }
      case kTagSketch: {
        auto s0 = in.read_u32();
        if (!s0) return s0.status();
        auto s1 = in.read_u32();
        if (!s1) return s1.status();
        auto seed = in.read_u64();
        if (!seed) return seed.status();
        if (s0.value() == 0 || s1.value() == 0 ||
            static_cast<std::size_t>(s0.value()) * s1.value() > (1u << 22)) {
          return common::Status(common::ErrorCode::kDataLoss,
                                "implausible sketch shape");
        }
        sketch::AgmsSketch decoded(sketch::AgmsShape{s0.value(), s1.value()},
                                   seed.value());
        // Counters travel as i32 (sign-extended on read).
        std::vector<std::int64_t> counters(
            static_cast<std::size_t>(s0.value()) * s1.value());
        for (auto& c : counters) {
          auto v = in.read_u32();
          if (!v) return v.status();
          c = static_cast<std::int32_t>(v.value());
        }
        decoded.set_counters(std::move(counters));
        if (visitor.on_sketch) visitor.on_sketch(side, std::move(decoded));
        break;
      }
      case kTagHistSpectrum: {
        auto buckets = in.read_u32();
        if (!buckets) return buckets.status();
        auto count = in.read_u16();
        if (!count) return count.status();
        std::vector<dsp::Complex> coeffs;
        coeffs.reserve(count.value());
        for (std::uint16_t i = 0; i < count.value(); ++i) {
          auto re = in.read_f64();
          if (!re) return re.status();
          auto im = in.read_f64();
          if (!im) return im.status();
          if (!std::isfinite(re.value()) || !std::isfinite(im.value())) {
            return non_finite_coefficient();
          }
          coeffs.emplace_back(re.value(), im.value());
        }
        if (visitor.on_hist_spectrum) {
          visitor.on_hist_spectrum(side, buckets.value(), std::move(coeffs));
        }
        break;
      }
      case kTagHistSpectrumQuant: {
        auto buckets = in.read_u32();
        if (!buckets) return buckets.status();
        unsigned bits = 0;
        double scale = 0.0;
        if (auto st = read_quant_header(in, bits, scale); !st.is_ok()) return st;
        auto count = in.read_u16();
        if (!count) return count.status();
        std::vector<dsp::Complex> coeffs;
        coeffs.reserve(count.value());
        for (std::uint16_t i = 0; i < count.value(); ++i) {
          auto v = read_quant_pair(in, bits, scale);
          if (!v) return v.status();
          coeffs.push_back(v.value());
        }
        if (visitor.on_hist_spectrum) {
          visitor.on_hist_spectrum(side, buckets.value(), std::move(coeffs));
        }
        break;
      }
      case kTagSample: {
        auto version = in.read_u8();
        if (!version) return version.status();
        if (version.value() != kSampleSummaryVersion) {
          return common::Status(common::ErrorCode::kDataLoss,
                                "unsupported sample summary version");
        }
        sampling::SampleSummary summary;
        auto strata = in.read_u32();
        if (!strata) return strata.status();
        auto capacity = in.read_u32();
        if (!capacity) return capacity.status();
        // Mirrors the deserialize_config ranges: a hostile geometry would
        // otherwise poison downstream budget arithmetic.
        if (strata.value() == 0 || strata.value() > 4096 ||
            capacity.value() == 0 || capacity.value() > (1u << 15)) {
          return common::Status(common::ErrorCode::kDataLoss,
                                "implausible sample geometry");
        }
        auto population = in.read_u64();
        if (!population) return population.status();
        if (population.value() > (1ULL << 48)) {
          return common::Status(common::ErrorCode::kDataLoss,
                                "implausible sample population");
        }
        summary.strata = strata.value();
        summary.capacity = capacity.value();
        summary.population = population.value();
        auto count = in.read_u16();
        if (!count) return count.status();
        summary.keys.reserve(count.value());
        for (std::uint16_t i = 0; i < count.value(); ++i) {
          auto key = in.read_i64();
          if (!key) return key.status();
          auto weight = in.read_f64();
          if (!weight) return weight.status();
          auto variance = in.read_f64();
          if (!variance) return variance.status();
          // Canonical form: strictly ascending keys, finite non-negative
          // masses. estimate_key_count binary-searches the list, so an
          // unsorted or NaN-carrying block must never reach a store.
          if (!summary.keys.empty() && key.value() <= summary.keys.back().key) {
            return common::Status(common::ErrorCode::kDataLoss,
                                  "sample keys not strictly ascending");
          }
          if (!std::isfinite(weight.value()) || weight.value() < 0.0 ||
              !std::isfinite(variance.value()) || variance.value() < 0.0) {
            return common::Status(common::ErrorCode::kDataLoss,
                                  "bad sample mass");
          }
          summary.keys.push_back(sampling::KeyMass{
              key.value(), weight.value(), variance.value()});
        }
        if (visitor.on_sample) visitor.on_sample(side, std::move(summary));
        break;
      }
      default:
        return common::Status(common::ErrorCode::kDataLoss,
                              "unknown summary sub-block tag");
    }
  }
  return common::Status::ok();
}

}  // namespace summary_codec

CoeffStore::CoeffStore(std::uint32_t window, std::uint32_t retained) {
  spectrum_.window = window;
  spectrum_.coeffs.assign(retained, dsp::Complex{});
}

void CoeffStore::apply(const std::vector<dsp::CoeffDelta>& deltas) {
  for (const auto& d : deltas) {
    if (d.index < spectrum_.coeffs.size()) {
      spectrum_.coeffs[d.index] = d.value;
      ++updates_;
      dirty_ = true;
    }
  }
}

// ceil(bits(range) / 11) stable counting passes of equal digit width over
// v - min, so the pass count follows the window's range, not the key
// width: a DFTT reconstruction spans a few hundred thousand values at
// most. The counts and the scratch buffer are per-thread and keep their
// capacity; an odd pass count ends with a swap that trades `values`'
// buffer for the scratch one.
void radix_sort(std::vector<std::int64_t>& values) {
  constexpr unsigned kMaxDigitBits = 11;
  const std::size_t n = values.size();
  assert(n <= UINT32_MAX);  // the counts are u32
  if (n < 2) return;
  const auto [min_it, max_it] = std::minmax_element(values.begin(), values.end());
  const auto base = static_cast<std::uint64_t>(*min_it);
  const std::uint64_t range = static_cast<std::uint64_t>(*max_it) - base;
  if (range == 0) return;
  const auto bits = static_cast<unsigned>(std::bit_width(range));
  const unsigned passes = (bits + kMaxDigitBits - 1) / kMaxDigitBits;
  const unsigned digit_bits = (bits + passes - 1) / passes;
  const std::uint64_t mask = (std::uint64_t{1} << digit_bits) - 1;
  thread_local std::vector<std::uint32_t> counts;
  thread_local std::vector<std::int64_t> scratch;
  counts.resize(std::size_t{1} << digit_bits);
  scratch.resize(n);
  std::int64_t* src = values.data();
  std::int64_t* dst = scratch.data();
  for (unsigned shift = 0; shift < passes * digit_bits; shift += digit_bits) {
    const auto digit = [&](std::int64_t v) {
      return static_cast<std::size_t>(
          ((static_cast<std::uint64_t>(v) - base) >> shift) & mask);
    };
    std::fill(counts.begin(), counts.end(), 0u);
    for (std::size_t i = 0; i < n; ++i) ++counts[digit(src[i])];
    std::uint32_t offset = 0;
    for (std::uint32_t& c : counts) offset += std::exchange(c, offset);
    for (std::size_t i = 0; i < n; ++i) dst[counts[digit(src[i])]++] = src[i];
    std::swap(src, dst);
  }
  if (src != values.data()) values.swap(scratch);
}

void CoeffStore::rebuild() {
  dsp::reconstruct_rounded(spectrum_, sorted_);
  radix_sort(sorted_);
  dirty_ = false;
}

std::uint64_t CoeffStore::estimate_count(std::int64_t key, std::int64_t tolerance) {
  if (dirty_) rebuild();
  // The upper search starts at the lower result, so a negative tolerance
  // counts nothing.
  const auto lo = std::lower_bound(sorted_.begin(), sorted_.end(), key - tolerance);
  const auto hi = std::upper_bound(lo, sorted_.end(), key + tolerance);
  return static_cast<std::uint64_t>(hi - lo);
}

bool BloomStore::contains(std::int64_t key, std::int64_t tolerance) const {
  if (!snapshot_) return false;
  for (std::int64_t k = key - tolerance; k <= key + tolerance; ++k) {
    if (snapshot_->contains(static_cast<std::uint64_t>(k))) return true;
  }
  return false;
}

}  // namespace dsjoin::core
