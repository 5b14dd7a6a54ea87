// SPEC (ablation A3, ours): the shared SpectrumSummaryEngine (histogram-DFT
// spectra, periodic broadcasts, cached Parseval estimates) and the
// join-size-weighted routing on top — what SKCH becomes when its randomized
// sketches are replaced by the deterministic truncated histogram spectrum.
#include <algorithm>
#include <cmath>

#include "policy_impl.hpp"

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

SpectrumSummaryEngine::SpectrumSummaryEngine(const SystemConfig& config,
                                             net::NodeId self)
    : config_(config), self_(self),
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
  ++local_tuples_;
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

std::vector<OutboundSummary> SpectrumSummaryEngine::maintenance(double /*now*/) {
  if (local_tuples_ % config_.summary_epoch_tuples == 0) {
    for (auto& peer : peers_) peer.est_dirty = {true, true};
  }
  if (local_tuples_ - last_broadcast_tuple_ < config_.summary_epoch_tuples) {
    return {};
  }
  last_broadcast_tuple_ = local_tuples_;
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
  SummaryBlock block{std::move(writer).take()};
  std::vector<OutboundSummary> out;
  for (net::NodeId j = 0; j < config_.nodes; ++j) {
    if (j != self_) {
      out.push_back(OutboundSummary{j, block, SummaryFamily::kSpectrum});
    }
  }
  return out;
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

SpectrumPolicy::SpectrumPolicy(const SystemConfig& config, double throttle,
                               net::NodeId self, SummarySubstrate& substrate)
    : RoutingPolicy(substrate), config_(config), self_(self),
      throttle_(throttle), engine_(&substrate.spectrum()),
      rng_(config.seed ^ (0x4e57'beefULL + self)) {}

std::vector<net::NodeId> SpectrumPolicy::route(const stream::Tuple& tuple) {
  const std::uint32_t n = config_.nodes;
  const double budget = throttle_to_budget(throttle_, n);
  const auto side = static_cast<std::size_t>(tuple.side);
  const std::size_t opposite = 1 - side;

  std::vector<net::NodeId> peer_ids;
  std::vector<double> scores;
  peer_ids.reserve(n - 1);
  for (net::NodeId j = 0; j < n; ++j) {
    if (j == self_) continue;
    peer_ids.push_back(j);
    if (!engine_->remote_seeded(j, opposite)) {
      scores.push_back(1.0);  // bootstrap exploration
    } else {
      scores.push_back(engine_->refreshed_estimate(j, side));
    }
  }

  // Key-independent weights, like SKCH; uniform spread when the estimates
  // carry no signal at all.
  double score_sum = 0.0;
  for (double v : scores) score_sum += v;
  if (score_sum <= 0.0) {
    std::fill(scores.begin(), scores.end(), 1.0);
  }
  const double floor = 0.05 * budget / static_cast<double>(n - 1);
  const auto probs = allocate_flow_probabilities(scores, budget, floor);

  std::vector<net::NodeId> out;
  last_probs_.assign(n, 0.0);
  for (std::size_t idx = 0; idx < peer_ids.size(); ++idx) {
    last_probs_[peer_ids[idx]] = probs[idx];
    if (rng_.next_bool(probs[idx])) out.push_back(peer_ids[idx]);
  }
  return out;
}

}  // namespace dsjoin::core
