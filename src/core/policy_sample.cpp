// SMPL (ours): the shared SampleSummaryEngine (stratified sliding-window
// reservoirs, lazily refreshed own-sample aggregates, remote samples) and
// the Horvitz–Thompson match-estimate routing on top, plus the accumulated
// predicted-epsilon upper bound (DESIGN.md §14).
#include <algorithm>
#include <cmath>

#include "policy_impl.hpp"

namespace dsjoin::core {

namespace {

sampling::ReservoirOptions reservoir_options(const SystemConfig& config) {
  sampling::ReservoirOptions options;
  options.capacity = config.sample_capacity_effective();
  options.strata = config.sample_strata;
  // The other policies summarize a dft_window-tuple count window; the
  // reservoir tracks the same span expressed in time at the configured
  // arrival rate (validate_config keeps it finite and > 0), so the sampled
  // populations are comparable.
  options.window_s =
      static_cast<double>(config.dft_window) / config.arrivals_per_second;
  return options;
}

std::uint64_t reservoir_seed(const SystemConfig& config, net::NodeId self,
                             std::size_t side) {
  // Per (node, side) streams; any two differ in the mixed-in constant.
  return config.seed ^ (0x5a3f'11e0ULL + self * 2 + side);
}

// A key absent from a peer's sample is weak evidence of absence: with
// sampling fraction f = capacity/population, a key of true count c escapes
// the sample with probability ~(1-f)^c, so the one-sided 95% bound given
// zero observations is c <= ln(0.05)/ln(1-f) ~= 3/f (the rule of three).
// Only a complete sample (population <= capacity) proves absence.
double unseen_upper(const sampling::SampleSummary& summary) {
  if (summary.population <= summary.capacity) return 0.0;
  return 3.0 * static_cast<double>(summary.population) /
         static_cast<double>(std::max(summary.capacity, 1u));
}

}  // namespace

SampleSummaryEngine::SampleSummaryEngine(const SystemConfig& config,
                                         net::NodeId self)
    : config_(config), self_(self),
      reservoir_{sampling::StratifiedReservoir(reservoir_options(config),
                                               reservoir_seed(config, self, 0)),
                 sampling::StratifiedReservoir(reservoir_options(config),
                                               reservoir_seed(config, self, 1))},
      peers_(config.nodes) {}

void SampleSummaryEngine::observe_local(const stream::Tuple& tuple) {
  reservoir_[static_cast<std::size_t>(tuple.side)].observe(tuple.key,
                                                           tuple.timestamp);
  ++local_tuples_;
}

const sampling::SampleSummary& SampleSummaryEngine::own_summary(std::size_t side) {
  if (own_dirty_[side]) {
    own_[side] = reservoir_[side].summary();
    own_dirty_[side] = false;
  }
  return own_[side];
}

void SampleSummaryEngine::apply_sample(net::NodeId peer, stream::StreamSide side,
                                       sampling::SampleSummary summary) {
  peers_[peer].remote[static_cast<std::size_t>(side)].update(std::move(summary));
}

std::vector<OutboundSummary> SampleSummaryEngine::maintenance(double /*now*/) {
  // The sample drifts every tuple; refresh the cached own aggregates once
  // per epoch so route()'s self-term tracks the window without paying an
  // aggregation per tuple.
  if (local_tuples_ % config_.summary_epoch_tuples == 0) {
    own_dirty_ = {true, true};
  }
  if (local_tuples_ - last_broadcast_tuple_ < config_.summary_epoch_tuples) {
    return {};
  }
  last_broadcast_tuple_ = local_tuples_;
  own_dirty_ = {true, true};
  common::BufferWriter writer;
  for (std::size_t side = 0; side < 2; ++side) {
    summary_codec::encode_sample(
        writer, static_cast<stream::StreamSide>(side), own_summary(side));
  }
  SummaryBlock block{std::move(writer).take()};
  std::vector<OutboundSummary> out;
  for (net::NodeId j = 0; j < config_.nodes; ++j) {
    if (j != self_) out.push_back(OutboundSummary{j, block, SummaryFamily::kSample});
  }
  return out;
}

SamplePolicy::SamplePolicy(const SystemConfig& config, double throttle,
                           net::NodeId self, SummarySubstrate& substrate)
    : RoutingPolicy(substrate), config_(config), self_(self),
      throttle_(throttle), engine_(&substrate.sample()),
      rng_(config.seed ^ (0x5a3f'beefULL + self)) {}

std::vector<net::NodeId> SamplePolicy::route(const stream::Tuple& tuple) {
  const std::uint32_t n = config_.nodes;
  const double budget = throttle_to_budget(throttle_, n);
  const auto side = static_cast<std::size_t>(tuple.side);
  const std::size_t opposite = 1 - side;
  const std::int64_t tolerance = config_.membership_tolerance;

  // Matches this tuple finds locally regardless of routing — the bound's
  // denominator includes them, its numerator never does.
  const auto self_est = sampling::estimate_key_count(
      engine_->own_summary(opposite), tuple.key, tolerance);

  std::vector<net::NodeId> peer_ids;
  std::vector<double> scores;   // routing weight per peer
  std::vector<double> means;    // HT mean match mass credited to the bound
  std::vector<double> upper;    // confidence-inflated match mass per peer
  peer_ids.reserve(n - 1);
  for (net::NodeId j = 0; j < n; ++j) {
    if (j == self_) continue;
    peer_ids.push_back(j);
    const auto* remote = engine_->remote(j, opposite);
    if (remote == nullptr) {
      // Bootstrap: no sample from this peer yet. Explore with full weight,
      // credit the peer no found mass, and charge the bound as if it held
      // as much matching mass as our own window (at least one tuple) —
      // unseeded peers must never make the bound smaller.
      scores.push_back(1.0);
      means.push_back(0.0);
      upper.push_back(
          std::max(sampling::upper_confidence(self_est), 1.0));
    } else {
      const auto est = sampling::estimate_key_count(*remote, tuple.key,
                                                    tolerance);
      scores.push_back(est.mean);
      means.push_back(est.mean);
      upper.push_back(est.mean > 0.0 || est.variance > 0.0
                          ? sampling::upper_confidence(est)
                          : unseen_upper(*remote));
    }
  }

  // Membership-style semantics: when no peer shows matching mass, only the
  // exploration floor flows (unlike SKCH, SMPL can "send almost nothing").
  const double floor = 0.05 * budget / static_cast<double>(n - 1);
  const auto probs = allocate_flow_probabilities(scores, budget, floor);

  double missed = 0.0;
  double total = self_est.mean;
  std::vector<net::NodeId> out;
  last_probs_.assign(n, 0.0);
  for (std::size_t idx = 0; idx < peer_ids.size(); ++idx) {
    const double p = probs[idx];
    last_probs_[peer_ids[idx]] = p;
    missed += (1.0 - p) * upper[idx];
    total += means[idx];
    if (rng_.next_bool(p)) out.push_back(peer_ids[idx]);
  }
  bound_.missed_mass += missed;
  bound_.total_mass += total;
  return out;
}

}  // namespace dsjoin::core
