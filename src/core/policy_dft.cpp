// DFT and DFTT (Sections 5.2-5.3, Figure 7): the shared DftSummaryEngine
// (coefficient maintenance, summary exchange, cached flow coefficients)
// and the per-query routing layered on top of it.
#include <algorithm>
#include <cassert>
#include <cmath>

#include "dsjoin/dsp/spectrum.hpp"
#include "policy_impl.hpp"

namespace dsjoin::core {

namespace {
std::size_t side_index(stream::StreamSide side) {
  return static_cast<std::size_t>(side);
}
}  // namespace

DftSummaryEngine::DftSummaryEngine(const SystemConfig& config, net::NodeId self)
    : config_(config), self_(self),
      local_{dsp::SlidingDft(config.dft_window, config.dft_retained()),
             dsp::SlidingDft(config.dft_window, config.dft_retained())} {
  // Drift management: exact recompute every 4 windows.
  for (auto& dft : local_) {
    dft.set_renormalize_interval(static_cast<std::uint64_t>(config.dft_window) * 4);
  }
  const auto w = config.dft_window;
  const auto k = static_cast<std::uint32_t>(config.dft_retained());
  peers_.reserve(config.nodes);
  for (std::uint32_t j = 0; j < config.nodes; ++j) {
    PeerState state{{CoeffStore(w, k), CoeffStore(w, k)}, {}, {}, {}, 0};
    state.synced[0].assign(k, dsp::Complex{});
    state.synced[1].assign(k, dsp::Complex{});
    peers_.push_back(std::move(state));
  }
  published_[0].assign(k, dsp::Complex{});
  published_[1].assign(k, dsp::Complex{});
}

void DftSummaryEngine::refresh_clip_band(std::size_t side) {
  auto& sample = recent_raw_[side];
  if (sample.size() < 32) return;
  std::vector<double> sorted = sample;
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2, sorted.end());
  const double med = sorted[sorted.size() / 2];
  for (auto& v : sorted) v = std::abs(v - med);
  std::nth_element(sorted.begin(), sorted.begin() + sorted.size() / 2, sorted.end());
  const double mad = sorted[sorted.size() / 2];
  const double half = std::max(10.0 * mad, 256.0);
  clip_[side] = ClipBand{med - half, med + half};
}

void DftSummaryEngine::observe_local(const stream::Tuple& tuple) {
  const std::size_t side = side_index(tuple.side);
  // Robust summarization: background keys far outside the stream's typical
  // value band would dominate the spectral energy and wreck both the
  // compressed reconstruction and the correlation coefficient. Values are
  // clipped to a median +/- 10 MAD band (robust to heavy contamination,
  // unlike mean/sigma) before entering the DFT. The paper's stock data
  // needed no such step; arbitrary traces do.
  const double raw = static_cast<double>(tuple.key);
  auto& sample = recent_raw_[side];
  if (sample.size() < 512) {
    sample.push_back(raw);
  } else {
    sample[local_tuples_ % 512] = raw;
  }
  if (clip_[side].lo == -1e300 && sample.size() >= 64) refresh_clip_band(side);
  // Clipping happens at observation time (the band in force for *this*
  // tuple), but the DFT push is deferred: routing reads only cached rho
  // values and remote coefficient stores, so local_[side] is not consulted
  // until the next rho refresh or epoch republish. flush_pending then
  // drains the buffer through the vectorized push_batch — bit-identical to
  // pushing here, since nothing observed the coefficients in between.
  pending_values_[side].push_back(std::clamp(raw, clip_[side].lo, clip_[side].hi));
  ++local_tuples_;
}

void DftSummaryEngine::flush_pending(std::size_t side) {
  auto& pending = pending_values_[side];
  if (pending.empty()) return;
  local_[side].push_batch(pending);
  pending.clear();
}

std::vector<dsp::CoeffDelta> DftSummaryEngine::deltas_for(net::NodeId peer,
                                                          std::size_t side,
                                                          std::size_t max_entries) {
  auto& synced = peers_[peer].synced[side];
  const auto& published = published_[side];
  std::vector<dsp::CoeffDelta> out;
  for (std::size_t k = 0; k < published.size(); ++k) {
    if (std::abs(published[k] - synced[k]) > 1e-12) {
      out.push_back(dsp::CoeffDelta{static_cast<std::uint32_t>(k), published[k]});
      if (out.size() == 0xffff) break;  // u16 wire limit
    }
  }
  if (max_entries != 0 && out.size() > max_entries) {
    // Ship the most significant changes first; the rest stay pending.
    std::partial_sort(out.begin(), out.begin() + static_cast<std::ptrdiff_t>(max_entries),
                      out.end(), [&](const auto& a, const auto& b) {
                        return std::abs(a.value - synced[a.index]) >
                               std::abs(b.value - synced[b.index]);
                      });
    out.resize(max_entries);
  }
  for (const auto& d : out) synced[d.index] = d.value;
  return out;
}

SummaryBlock DftSummaryEngine::block_for(net::NodeId peer,
                                         std::size_t max_entries_per_side) {
  common::BufferWriter writer;
  for (std::size_t side = 0; side < 2; ++side) {
    const auto deltas = deltas_for(peer, side, max_entries_per_side);
    if (deltas.empty()) continue;
    const auto side_tag = static_cast<stream::StreamSide>(side);
    const auto window = static_cast<std::uint32_t>(config_.dft_window);
    const auto retained = static_cast<std::uint32_t>(config_.dft_retained());
    // Quantized encoding when enabled and safe: indices must fit the u16
    // wire field, and the width escalation must find one whose predicted
    // added reconstruction MSE stays within budget (f64 fallback otherwise).
    // synced[] keeps the exact published values either way — the receiver
    // holds dequantized coefficients with a bounded, budgeted error, and
    // comparing published vs synced exactly avoids a resend loop.
    unsigned bits = 0;
    double scale = 0.0;
    if (config_.summary_quant_bits != 0 && retained <= 0x10000) {
      std::vector<dsp::Complex> values;
      values.reserve(deltas.size());
      for (const auto& d : deltas) values.push_back(d.value);
      scale = dsp::quant_scale(values);
      bits = dsp::choose_quant_bits(scale, config_.dft_retained(),
                                    config_.dft_window,
                                    config_.summary_quant_bits);
    }
    if (bits != 0) {
      summary_codec::encode_dft_quant(writer, side_tag, window, retained,
                                      deltas, bits, scale);
    } else {
      summary_codec::encode_dft(writer, side_tag, window, retained, deltas);
    }
  }
  return SummaryBlock{std::move(writer).take()};
}

SummaryBlock DftSummaryEngine::piggyback_for(net::NodeId peer) {
  peers_[peer].tuples_since_contact = 0;
  return block_for(peer, config_.piggyback_max_coeffs);
}

void DftSummaryEngine::apply_deltas(net::NodeId peer, stream::StreamSide side,
                                    std::uint32_t window, std::uint32_t retained,
                                    const std::vector<dsp::CoeffDelta>& deltas) {
  // Geometry must match the experiment's global configuration.
  if (window != config_.dft_window ||
      retained != static_cast<std::uint32_t>(config_.dft_retained())) {
    return;
  }
  auto& state = peers_[peer];
  state.remote[side_index(side)].apply(deltas);
  state.rho_dirty[0] = state.rho_dirty[1] = true;
}

std::vector<OutboundSummary> DftSummaryEngine::maintenance(double /*now*/) {
  // Epoch boundary: re-publish the current coefficients (Figure 7 lines
  // 1-2: recalculate, extract changed coefficients).
  if (local_tuples_ % config_.summary_epoch_tuples == 0) {
    for (std::size_t side = 0; side < 2; ++side) {
      refresh_clip_band(side);
      flush_pending(side);
      const auto coeffs = local_[side].coefficients();
      published_[side].assign(coeffs.begin(), coeffs.end());
    }
    for (auto& peer : peers_) peer.rho_dirty = {true, true};
  }
  std::vector<OutboundSummary> out;
  for (net::NodeId j = 0; j < peers_.size(); ++j) {
    if (j == self_) continue;
    auto& state = peers_[j];
    ++state.tuples_since_contact;
    if (state.tuples_since_contact >
        static_cast<std::uint64_t>(config_.summary_epoch_tuples) *
            config_.stale_flush_epochs) {
      SummaryBlock block = block_for(j, 0);  // stale flush: ship everything
      if (!block.empty()) {
        out.push_back(OutboundSummary{j, std::move(block), SummaryFamily::kCoeff});
      }
      state.tuples_since_contact = 0;
    }
  }
  return out;
}

double DftSummaryEngine::refreshed_rho(net::NodeId peer, std::size_t tuple_side) {
  auto& state = peers_[peer];
  const std::size_t opposite = 1 - tuple_side;
  if (state.rho_dirty[tuple_side]) {
    flush_pending(tuple_side);
    const auto& remote = state.remote[opposite];
    double sample = 0.0;
    // The ring is value-backfilled, so the local spectrum is meaningful as
    // soon as a modest number of real values entered it.
    const bool local_ready =
        local_[tuple_side].count() >= config_.summary_epoch_tuples / 2;
    if (remote.seeded() && local_ready) {
      const auto local = local_[tuple_side].coefficients();
      const auto rho =
          dsp::lag_max_correlation(local, remote.coefficients(), config_.dft_window)
              .rho;
      // rho alone measures co-movement of the windows' fluctuations; at the
      // scaled window sizes used here every low-passed window is smooth, so
      // rho saturates for unrelated smooth streams too. The flow coefficient
      // therefore also weighs how far apart the two windows *sit* in the key
      // domain — read off the DC coefficients the summaries already carry
      // (Eq. 5 correlates the raw, not mean-removed, variables).
      const double mu_l = dsp::spectral_mean(local, config_.dft_window);
      const double mu_r =
          dsp::spectral_mean(remote.coefficients(), config_.dft_window);
      // Distance scale: the robust value band of the local stream (the
      // spectral sigma of the *retained* coefficients would underestimate a
      // white-noise spread by sqrt(W/K)). Until the band is known, treat
      // all peers as near (bootstrap).
      const double half_band =
          clip_[tuple_side].lo > -1e299
              ? 0.5 * (clip_[tuple_side].hi - clip_[tuple_side].lo)
              : 1e12;
      const double affinity = std::exp(-std::abs(mu_l - mu_r) / (half_band + 1.0));
      // Blend: the DC alignment (affinity) carries most of the join-locality
      // signal at these window sizes; the AC co-movement (rho) refines it.
      sample = affinity * (0.25 + 0.75 * std::max(rho, 0.0));
      // Exponential smoothing suppresses estimator noise so that the
      // uniform-case detector sees the persistent component of the scores.
      state.rho[tuple_side] = 0.7 * state.rho[tuple_side] + 0.3 * sample;
    }
    state.rho_dirty[tuple_side] = false;
  }
  return state.rho[tuple_side];
}

DftFamilyPolicy::DftFamilyPolicy(const SystemConfig& config, net::NodeId self,
                                 SummarySubstrate& substrate, bool reconstruct)
    : RoutingPolicy(substrate), config_(config), self_(self),
      reconstruct_(reconstruct), throttle_(config.throttle),
      engine_(&substrate.coeff()),
      rng_(config.seed ^ (0xd5f7'0000ULL + self)) {}

std::vector<net::NodeId> DftFamilyPolicy::route(const stream::Tuple& tuple) {
  const std::uint32_t n = config_.nodes;
  const double budget = throttle_to_budget(throttle_, n);
  const std::size_t side = side_index(tuple.side);
  const std::size_t opposite = 1 - side;

  // Gather per-peer scores (self excluded; compacted into peer order).
  std::vector<net::NodeId> peer_ids;
  std::vector<double> scores;
  std::vector<double> rhos;
  peer_ids.reserve(n - 1);
  scores.reserve(n - 1);
  bool all_seeded = true;
  for (net::NodeId j = 0; j < n; ++j) {
    if (j == self_) continue;
    peer_ids.push_back(j);
    if (!engine_->remote_seeded(j, opposite)) {
      all_seeded = false;
      scores.push_back(1.0);  // bootstrap: explore unseeded peers
      rhos.push_back(0.0);
      continue;
    }
    const double rho = engine_->refreshed_rho(j, side);
    rhos.push_back(rho);
    if (reconstruct_) {
      const auto est = engine_->estimate_count(j, opposite, tuple.key,
                                               config_.membership_tolerance);
      scores.push_back(static_cast<double>(est));
    } else {
      scores.push_back(std::max(rho, 0.0));
    }
  }

  // Worst-case detection (Theorem 1 discussion): vanishing variance of the
  // flow coefficients means the filter carries no signal; fall back to
  // round-robin at the same budget.
  const bool warmed_up =
      engine_->local_tuples() > 3ull * config_.summary_epoch_tuples;
  if (all_seeded && warmed_up && !peer_ids.empty()) {
    double mean = 0.0;
    for (double r : rhos) mean += r;
    mean /= static_cast<double>(rhos.size());
    double var = 0.0;
    for (double r : rhos) var += (r - mean) * (r - mean);
    var /= static_cast<double>(rhos.size());
    // Scale-free detection: equal correlation with all neighbors means the
    // scores' relative spread vanishes, not their absolute variance.
    fallback_ = mean > 0.0 && std::sqrt(var) < config_.uniform_detection_cv * mean;
  }
  if (fallback_) {
    const auto k = static_cast<std::uint32_t>(std::lround(budget));
    std::vector<net::NodeId> out;
    for (std::uint32_t step = 0; step < k && step + 1 < n; ++step) {
      rr_cursor_ = (rr_cursor_ + 1) % n;
      if (rr_cursor_ == self_) rr_cursor_ = (rr_cursor_ + 1) % n;
      out.push_back(rr_cursor_);
    }
    last_probs_.assign(n, budget / static_cast<double>(n - 1));
    last_probs_[self_] = 0.0;
    return out;
  }

  // DFTT explores non-matching peers only lightly (throttle^4 -> broadcast
  // as throttle -> 1); DFT's rho is key-independent, so it always spends its
  // full budget plus a small exploration floor.
  const double floor =
      reconstruct_ ? std::pow(throttle_, 6)
                   : 0.05 * budget / static_cast<double>(n - 1);
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
