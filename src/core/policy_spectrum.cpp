// SPEC (ablation A3, ours): the SpectrumSummaryEngine (histogram-DFT
// spectra and cached Parseval estimates). RoutingPolicy weighs peers by
// the estimated join sizes — what SKCH becomes when its randomized sketches
// are replaced by the deterministic truncated histogram spectrum.
#include <algorithm>

#include "dsjoin/core/substrate.hpp"

namespace dsjoin::core {

namespace {

// Summary geometry: same wire budget as the other policies — K complex
// coefficients. Histogram resolution scales with the budget so the
// Parseval estimate keeps useful resolution.
std::uint32_t spectrum_buckets(const SystemConfig& config) {
  const auto k = static_cast<std::uint32_t>(config.dft_retained());
  return std::max<std::uint32_t>(64, k * 64);
}

std::size_t spectrum_retained(const SystemConfig& config) {
  const auto k = static_cast<std::size_t>(config.dft_retained());
  return std::min<std::size_t>(std::max<std::size_t>(k, 1),
                               spectrum_buckets(config) / 2 + 1);
}

}  // namespace

SpectrumSummaryEngine::SpectrumSummaryEngine(const SystemConfig& config)
    : config_(config),
      buckets_(spectrum_buckets(config)),
      local_{dsp::HistogramSpectrum(config.domain, spectrum_buckets(config),
                                    spectrum_retained(config)),
             dsp::HistogramSpectrum(config.domain, spectrum_buckets(config),
                                    spectrum_retained(config))},
      window_{stream::CountWindow(config.dft_window),
              stream::CountWindow(config.dft_window)},
      peers_(config.nodes) {}

void SpectrumSummaryEngine::observe_local(const stream::Tuple& tuple) {
  const auto side = static_cast<std::size_t>(tuple.side);
  const auto evicted = window_[side].insert(tuple.key);
  local_[side].add(tuple.key, +1);
  if (evicted) local_[side].add(*evicted, -1);
}

void SpectrumSummaryEngine::apply_spectrum(net::NodeId peer,
                                           stream::StreamSide side,
                                           std::uint32_t buckets,
                                           std::vector<dsp::Complex> coeffs) {
  if (buckets != buckets_) return;  // geometry must match the experiment
  auto& state = peers_[peer];
  const auto s = static_cast<std::size_t>(side);
  state.remote[s] = std::move(coeffs);
  state.seeded[s] = true;
  state.est_dirty = {true, true};
}

void SpectrumSummaryEngine::close_epoch() {
  for (auto& peer : peers_) peer.est_dirty = {true, true};
}

SummaryBlock SpectrumSummaryEngine::snapshot() {
  common::BufferWriter writer;
  for (std::size_t side = 0; side < 2; ++side) {
    const auto side_tag = static_cast<stream::StreamSide>(side);
    const auto coeffs = local_[side].coefficients();
    // Quantized encoding when enabled: the histogram spectrum reconstructs
    // bucket counts through a length-buckets_ inverse transform, so the
    // same MSE model applies with W = buckets_ and K = |coeffs|.
    unsigned bits = 0;
    double scale = 0.0;
    if (config_.summary_quant_bits != 0) {
      scale = dsp::quant_scale(coeffs);
      bits = dsp::choose_quant_bits(scale, coeffs.size(), buckets_,
                                    config_.summary_quant_bits);
    }
    if (bits != 0) {
      summary_codec::encode_hist_spectrum_quant(writer, side_tag, buckets_,
                                                coeffs, bits, scale);
    } else {
      summary_codec::encode_hist_spectrum(writer, side_tag, buckets_, coeffs);
    }
  }
  return SummaryBlock{std::move(writer).take()};
}

double SpectrumSummaryEngine::refreshed_estimate(net::NodeId peer,
                                                 std::size_t tuple_side) {
  auto& state = peers_[peer];
  if (state.est_dirty[tuple_side]) {
    const std::size_t opposite = 1 - tuple_side;
    state.est[tuple_side] =
        state.seeded[opposite]
            ? std::max(dsp::HistogramSpectrum::estimate_join(
                           local_[tuple_side].coefficients(),
                           state.remote[opposite], buckets_),
                       0.0)
            : 0.0;
    state.est_dirty[tuple_side] = false;
  }
  return state.est[tuple_side];
}

}  // namespace dsjoin::core
