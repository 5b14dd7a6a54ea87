#include "dsjoin/core/substrate.hpp"

#include <algorithm>

namespace dsjoin::core {

SummarySubstrate::SummarySubstrate(const SystemConfig& config, net::NodeId self)
    : config_(config), self_(self) {}

DftSummaryEngine& SummarySubstrate::coeff() {
  if (!coeff_) coeff_ = std::make_unique<DftSummaryEngine>(config_, self_);
  return *coeff_;
}

BloomSummaryEngine& SummarySubstrate::bloom() {
  if (!bloom_) bloom_ = std::make_unique<BloomSummaryEngine>(config_);
  return *bloom_;
}

SketchSummaryEngine& SummarySubstrate::sketch() {
  if (!sketch_) sketch_ = std::make_unique<SketchSummaryEngine>(config_);
  return *sketch_;
}

SpectrumSummaryEngine& SummarySubstrate::spectrum() {
  if (!spectrum_) {
    spectrum_ = std::make_unique<SpectrumSummaryEngine>(config_);
  }
  return *spectrum_;
}

SampleSummaryEngine& SummarySubstrate::sample() {
  if (!sample_) sample_ = std::make_unique<SampleSummaryEngine>(config_, self_);
  return *sample_;
}

void SummarySubstrate::subscribe(SummaryFamily family, std::uint32_t query_id) {
  if (family == SummaryFamily::kNone) return;
  switch (family) {
    case SummaryFamily::kCoeff: (void)coeff(); break;
    case SummaryFamily::kBloom: (void)bloom(); break;
    case SummaryFamily::kSketch: (void)sketch(); break;
    case SummaryFamily::kSpectrum: (void)spectrum(); break;
    case SummaryFamily::kSample: (void)sample(); break;
    case SummaryFamily::kNone: break;
  }
  auto& subs = subscribers_[static_cast<std::size_t>(family)];
  const auto it = std::lower_bound(subs.begin(), subs.end(), query_id);
  if (it == subs.end() || *it != query_id) subs.insert(it, query_id);
}

std::uint32_t SummarySubstrate::lowest_subscriber(SummaryFamily family) const {
  const auto& subs = subscribers_[static_cast<std::size_t>(family)];
  return subs.empty() ? 0 : subs.front();
}

bool SummarySubstrate::uses_summaries() const noexcept {
  return coeff_ != nullptr || bloom_ != nullptr || sketch_ != nullptr ||
         spectrum_ != nullptr || sample_ != nullptr;
}

void SummarySubstrate::observe_local(const stream::Tuple& tuple) {
  // Per-family fan-in, in fixed family order: each live engine sees the
  // tuple exactly once no matter how many queries subscribed to it.
  if (coeff_) { coeff_->observe_local(tuple, local_tuples_); ++ingest_ops_; }
  if (bloom_) { bloom_->observe_local(tuple); ++ingest_ops_; }
  if (sketch_) { sketch_->observe_local(tuple); ++ingest_ops_; }
  if (spectrum_) { spectrum_->observe_local(tuple); ++ingest_ops_; }
  if (sample_) { sample_->observe_local(tuple); ++ingest_ops_; }
  ++local_tuples_;
}

SummaryBlock SummarySubstrate::piggyback_for(net::NodeId peer) {
  // Only the DFT family piggybacks on tuple frames (Figure 7, line 5); the
  // snapshot families broadcast from maintenance.
  if (!coeff_) return {};
  auto block = coeff_->piggyback_for(peer);
  if (block.empty() || !multi_query_) return block;
  return wrap(SummaryFamily::kCoeff, std::move(block));
}

std::vector<OutboundSummary> SummarySubstrate::maintenance(double /*now*/) {
  const std::uint64_t epoch_tuples = config_.summary_epoch_tuples;
  const bool epoch = local_tuples_ % epoch_tuples == 0;
  std::vector<OutboundSummary> out;
  if (coeff_) {
    if (epoch) coeff_->close_epoch();
    for (auto& entry : coeff_->stale_flushes()) {
      if (multi_query_) entry.block = wrap(entry.family, std::move(entry.block));
      out.push_back(std::move(entry));
    }
  }
  if (epoch) {
    if (sketch_) sketch_->close_epoch();
    if (spectrum_) spectrum_->close_epoch();
    if (sample_) sample_->close_epoch();
  }
  if (local_tuples_ - last_broadcast_tuple_ < epoch_tuples) return out;
  last_broadcast_tuple_ = local_tuples_;
  if (bloom_) broadcast(SummaryFamily::kBloom, bloom_->snapshot(), out);
  if (sketch_) broadcast(SummaryFamily::kSketch, sketch_->snapshot(), out);
  if (spectrum_) {
    broadcast(SummaryFamily::kSpectrum, spectrum_->snapshot(), out);
  }
  if (sample_) broadcast(SummaryFamily::kSample, sample_->snapshot(), out);
  return out;
}

void SummarySubstrate::broadcast(SummaryFamily family, SummaryBlock block,
                                 std::vector<OutboundSummary>& out) const {
  if (multi_query_) block = wrap(family, std::move(block));
  for (net::NodeId j = 0; j < config_.nodes; ++j) {
    if (j != self_) out.push_back(OutboundSummary{j, block, family});
  }
}

common::Status SummarySubstrate::on_summary(net::NodeId from,
                                           const SummaryBlock& block) {
  if (!multi_query_) return dispatch(from, block);
  // Multi-query wire: every sub-block arrives wrapped in a query scope.
  // The subscriber ids are attribution metadata (the receiver's registry
  // mirrors the sender's by config symmetry); the inner block is dispatched
  // to whichever engines exist here. A bare (unwrapped) block from a
  // sender that predates the wrapper dispatches as-is.
  summary_codec::Visitor visitor;
  bool saw_wrapper = false;
  common::Status inner_status = common::Status::ok();
  visitor.on_query_scope = [&](const std::vector<std::uint32_t>&,
                               SummaryBlock inner) {
    saw_wrapper = true;
    auto st = dispatch(from, inner);
    if (inner_status.is_ok()) inner_status = std::move(st);
  };
  if (!summary_codec::decode_blocks(block, visitor).is_ok() || !saw_wrapper) {
    return dispatch(from, block);
  }
  return inner_status;
}

common::Status SummarySubstrate::dispatch(net::NodeId from,
                                          const SummaryBlock& block) {
  summary_codec::Visitor visitor;
  if (coeff_) {
    visitor.on_dft = [&](stream::StreamSide side, std::uint32_t window,
                         std::uint32_t retained,
                         const std::vector<dsp::CoeffDelta>& deltas) {
      coeff_->apply_deltas(from, side, window, retained, deltas);
    };
  }
  if (bloom_) {
    visitor.on_bloom = [&](stream::StreamSide side, sketch::BloomFilter filter) {
      bloom_->apply_snapshot(from, side, std::move(filter));
    };
  }
  if (sketch_) {
    visitor.on_sketch = [&](stream::StreamSide side, sketch::AgmsSketch sk) {
      sketch_->apply_sketch(from, side, std::move(sk));
    };
  }
  if (spectrum_) {
    visitor.on_hist_spectrum = [&](stream::StreamSide side,
                                   std::uint32_t buckets,
                                   std::vector<dsp::Complex> coeffs) {
      spectrum_->apply_spectrum(from, side, buckets, std::move(coeffs));
    };
  }
  if (sample_) {
    visitor.on_sample = [&](stream::StreamSide side,
                            sampling::SampleSummary summary) {
      sample_->apply_sample(from, side, std::move(summary));
    };
  }
  // Sub-blocks of families without a live engine fall through their null
  // callbacks; a malformed block aborts mid-way, matching the single-policy
  // decoder's behavior: sub-blocks before the bad one stay applied, the
  // bad one is dropped whole, and the node counts the failure.
  return summary_codec::decode_blocks(block, visitor);
}

SummaryBlock SummarySubstrate::wrap(SummaryFamily family,
                                    SummaryBlock block) const {
  const auto& subs = subscribers_[static_cast<std::size_t>(family)];
  if (subs.empty() || block.empty()) return block;
  common::BufferWriter writer;
  summary_codec::encode_query_scope(writer, subs, block.bytes);
  return SummaryBlock{std::move(writer).take()};
}

}  // namespace dsjoin::core
