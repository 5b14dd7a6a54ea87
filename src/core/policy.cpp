#include "dsjoin/core/policy.hpp"

#include <algorithm>
#include <cmath>

#include "dsjoin/core/substrate.hpp"
#include "dsjoin/sampling/estimator.hpp"

namespace dsjoin::core {

namespace {

// Coefficient of variation under which the DFT family's flow filter
// declares the uniform worst case and falls back to round-robin (Section
// 5.2.2: "a very small variance in the filter probabilities indicates
// equal correlation with all neighbors"). Relative spread keeps the
// detector scale-free in the score magnitudes.
constexpr double kUniformDetectionCv = 0.25;

// Per-kind RNG stream constants, each plus the node id. The query id is
// never mixed in (DESIGN.md §15.2): N copies of one query route exactly
// like N independent single-query runs.
std::uint64_t rng_salt(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kDft:
    case PolicyKind::kDftt: return 0xd5f7'0000ULL;
    case PolicyKind::kBloom: return 0xb100'beefULL;
    case PolicyKind::kSketch: return 0x5ce7'beefULL;
    case PolicyKind::kSpectrum: return 0x4e57'beefULL;
    case PolicyKind::kSample: return 0x5a3f'beefULL;
    case PolicyKind::kBase:
    case PolicyKind::kRoundRobin: break;
  }
  return 0;  // BASE and RR draw nothing
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

double throttle_to_budget(double throttle, std::uint32_t nodes) noexcept {
  if (nodes < 2) return 0.0;
  const double peers = static_cast<double>(nodes - 1);
  const double t = std::clamp(throttle, 0.0, 1.0);
  return std::clamp(std::pow(peers, t), 1.0, peers);
}

void allocate_flow_probabilities(std::span<const double> scores, double budget,
                                 double floor, std::vector<double>& probs) {
  const std::size_t n = scores.size();
  probs.assign(n, 0.0);
  if (n == 0) return;
  floor = std::clamp(floor, 0.0, 1.0);
  budget = std::clamp(budget, 0.0, static_cast<double>(n));

  double score_sum = 0.0;
  for (double s : scores) score_sum += std::max(s, 0.0);
  if (score_sum <= 0.0) {
    // No signal at all: only the exploration floor flows.
    std::fill(probs.begin(), probs.end(), floor);
    return;
  }

  // Water-fill p_j = min(1, floor + w * s_j) with sum p_j = budget.
  // Iteratively saturate: peers that hit 1 are fixed, the rest share the
  // remaining budget proportionally to score. Terminates in <= n rounds.
  // A peer is saturated exactly when its probability is 1: the others
  // hold 0 or a p < 1 until the loop ends.
  const auto saturated = [&probs](std::size_t j) { return probs[j] == 1.0; };
  double fixed = 0.0;        // mass already assigned to saturated peers
  std::size_t sat_count = 0;
  for (std::size_t round = 0; round < n; ++round) {
    const double active = static_cast<double>(n - sat_count);
    double remaining = budget - fixed - floor * active;
    if (remaining < 0.0) remaining = 0.0;
    double active_score = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (!saturated(j)) active_score += std::max(scores[j], 0.0);
    }
    if (active_score <= 0.0) {
      for (std::size_t j = 0; j < n; ++j) {
        if (!saturated(j)) probs[j] = floor;
      }
      break;
    }
    const double w = remaining / active_score;
    bool newly_saturated = false;
    for (std::size_t j = 0; j < n; ++j) {
      if (saturated(j)) continue;
      const double p = floor + w * std::max(scores[j], 0.0);
      if (p >= 1.0) {
        probs[j] = 1.0;
        fixed += 1.0;
        ++sat_count;
        newly_saturated = true;
      } else {
        probs[j] = p;
      }
    }
    if (!newly_saturated) break;
  }
}

namespace {

// The one registry every name lookup and every CLI help string reads.
constexpr PolicyName kPolicyNames[] = {
    {PolicyKind::kBase, "BASE"},     {PolicyKind::kRoundRobin, "RR"},
    {PolicyKind::kDft, "DFT"},       {PolicyKind::kDftt, "DFTT"},
    {PolicyKind::kBloom, "BLOOM"},   {PolicyKind::kSketch, "SKCH"},
    {PolicyKind::kSpectrum, "SPEC"}, {PolicyKind::kSample, "SMPL"},
};

}  // namespace

std::span<const PolicyName> policy_names() noexcept { return kPolicyNames; }

std::string policy_names_csv() {
  std::string out;
  for (const auto& entry : kPolicyNames) {
    if (!out.empty()) out += " | ";
    out += entry.name;
  }
  return out;
}

const char* to_string(PolicyKind kind) noexcept {
  for (const auto& entry : kPolicyNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "?";
}

PolicyKind policy_from_string(const std::string& name) {
  for (const auto& entry : kPolicyNames) {
    if (name == entry.name) return entry.kind;
  }
  throw std::invalid_argument("unknown policy: " + name +
                              " (expected " + policy_names_csv() + ")");
}

RoutingPolicy::RoutingPolicy(const SystemConfig& config, const QuerySpec& spec,
                             net::NodeId self, SummarySubstrate& substrate)
    : kind_(spec.policy), self_(self), nodes_(config.nodes),
      tolerance_(config.membership_tolerance),
      warmup_tuples_(3ull * config.summary_epoch_tuples),
      throttle_(spec.throttle), substrate_(&substrate),
      rng_(config.seed ^ (rng_salt(spec.policy) + self)) {
  substrate.subscribe(family_of(spec.policy), spec.id);
  peers_.reserve(nodes_);
  for (net::NodeId j = 0; j < nodes_; ++j) {
    if (j != self_) peers_.push_back(j);
  }
}

RoutingPolicy::PeerScore RoutingPolicy::score(net::NodeId peer,
                                              const stream::Tuple& tuple,
                                              double unseeded_upper) {
  const auto side = static_cast<std::size_t>(tuple.side);
  const std::size_t opposite = 1 - side;
  // Every engine call below stays in this order: the refreshes update
  // caches (DFT's smoothed rho, SKCH's pending keys).
  switch (kind_) {
    case PolicyKind::kDft:
    case PolicyKind::kDftt: {
      auto& engine = substrate_->coeff();
      if (!engine.remote_seeded(peer, opposite)) return {};
      // DFTT scores with counts, but the fallback detector reads the rhos.
      const double rho = engine.refreshed_rho(peer, side);
      const double score =
          kind_ == PolicyKind::kDft
              ? std::max(rho, 0.0)
              : static_cast<double>(engine.estimate_count(
                    peer, opposite, tuple.key, tolerance_));
      return {score, true, rho};
    }
    case PolicyKind::kBloom: {
      const auto& engine = substrate_->bloom();
      if (!engine.remote_seeded(peer, opposite)) return {};
      // Bloom filters hold the exact remote keys, so the membership query
      // is the exact join predicate (no reconstruction slack).
      return {engine.remote_contains(peer, opposite, tuple.key, 0) ? 1.0 : 0.0,
              true};
    }
    case PolicyKind::kSketch: {
      auto& engine = substrate_->sketch();
      if (!engine.remote_seeded(peer, opposite)) return {};
      return {engine.refreshed_estimate(peer, side), true};
    }
    case PolicyKind::kSpectrum: {
      auto& engine = substrate_->spectrum();
      if (!engine.remote_seeded(peer, opposite)) return {};
      return {engine.refreshed_estimate(peer, side), true};
    }
    case PolicyKind::kSample: {
      const auto* remote = substrate_->sample().remote(peer, opposite);
      // No sample from this peer yet: credit it no found mass and charge
      // the bound as if it held as much matching mass as our own window
      // (at least one tuple) — unseeded peers never make the bound smaller.
      if (remote == nullptr) return {1.0, false, 0.0, 0.0, unseeded_upper};
      const auto est =
          sampling::estimate_key_count(*remote, tuple.key, tolerance_);
      const double upper = est.mean > 0.0 || est.variance > 0.0
                               ? sampling::upper_confidence(est)
                               : unseen_upper(*remote);
      return {est.mean, true, 0.0, est.mean, upper};
    }
    case PolicyKind::kBase:
    case PolicyKind::kRoundRobin: break;
  }
  return {};
}

void RoutingPolicy::round_robin(double budget, std::vector<net::NodeId>& out) {
  const auto k = static_cast<std::uint32_t>(std::lround(budget));
  for (std::uint32_t step = 0; step < k && step + 1 < nodes_; ++step) {
    cursor_ = (cursor_ + 1) % nodes_;
    if (cursor_ == self_) cursor_ = (cursor_ + 1) % nodes_;
    out.push_back(cursor_);
  }
}

void RoutingPolicy::route(const stream::Tuple& tuple,
                          std::vector<net::NodeId>& out) {
  out.clear();
  if (kind_ == PolicyKind::kBase) {  // exact join (Section 5.1)
    out.assign(peers_.begin(), peers_.end());
    return;
  }
  const std::uint32_t n = nodes_;
  const double budget = throttle_to_budget(throttle_, n);
  if (kind_ == PolicyKind::kRoundRobin) {
    round_robin(budget, out);
    return;
  }

  // SMPL's self-term: matches this tuple finds locally regardless of
  // routing. The bound's denominator includes them, its numerator never
  // does.
  double self_mass = 0.0;
  double unseeded_upper = 0.0;
  if (kind_ == PolicyKind::kSample) {
    const std::size_t opposite = 1 - static_cast<std::size_t>(tuple.side);
    const auto self_est = sampling::estimate_key_count(
        substrate_->sample().own_summary(opposite), tuple.key, tolerance_);
    self_mass = self_est.mean;
    unseeded_upper = std::max(sampling::upper_confidence(self_est), 1.0);
  }

  peer_scores_.clear();
  scores_.clear();
  bool all_seeded = true;
  for (const net::NodeId j : peers_) {
    const PeerScore& s =
        peer_scores_.emplace_back(score(j, tuple, unseeded_upper));
    all_seeded = all_seeded && s.seeded;
    scores_.push_back(s.score);
  }

  if (kind_ == PolicyKind::kDft || kind_ == PolicyKind::kDftt) {
    // Worst-case detection (Theorem 1 discussion): vanishing relative
    // spread of the flow coefficients means the filter carries no signal;
    // fall back to round-robin at the same budget.
    if (all_seeded && substrate_->local_tuples() > warmup_tuples_ &&
        !peers_.empty()) {
      const double count = static_cast<double>(peer_scores_.size());
      double mean = 0.0;
      for (const PeerScore& s : peer_scores_) mean += s.rho;
      mean /= count;
      double var = 0.0;
      for (const PeerScore& s : peer_scores_) {
        var += (s.rho - mean) * (s.rho - mean);
      }
      var /= count;
      fallback_ = mean > 0.0 && std::sqrt(var) < kUniformDetectionCv * mean;
    }
    if (fallback_) {
      last_probs_.assign(n, budget / static_cast<double>(n - 1));
      last_probs_[self_] = 0.0;
      round_robin(budget, out);
      return;
    }
  }

  // Membership families explore non-matching peers only lightly
  // (throttle^6 -> broadcast as throttle -> 1). The others always spend
  // their full budget plus a small exploration floor; SMPL's floor alone
  // flows when no peer shows matching mass.
  const double floor =
      kind_ == PolicyKind::kDftt || kind_ == PolicyKind::kBloom
          ? std::pow(throttle_, 6)
          : 0.05 * budget / static_cast<double>(n - 1);
  if (kind_ == PolicyKind::kSketch || kind_ == PolicyKind::kSpectrum) {
    // Join-size estimates are key-independent, the structural reason SKCH
    // trails the membership policies in messages per result (Figure 9's
    // ordering). When every estimate is zero the budget spreads uniformly:
    // these families have no notion of "send nothing".
    double score_sum = 0.0;
    for (double v : scores_) score_sum += v;
    if (score_sum <= 0.0) std::fill(scores_.begin(), scores_.end(), 1.0);
  }
  allocate_flow_probabilities(scores_, budget, floor, probs_);

  // The bound masses are 0 for families without an error model, so their
  // terms stay {0, 0}.
  double missed = 0.0;
  double total = self_mass;
  last_probs_.assign(n, 0.0);
  for (std::size_t idx = 0; idx < peers_.size(); ++idx) {
    const double p = probs_[idx];
    last_probs_[peers_[idx]] = p;
    missed += (1.0 - p) * peer_scores_[idx].upper;
    total += peer_scores_[idx].mean;
    if (rng_.next_bool(p)) out.push_back(peers_[idx]);
  }
  bound_.missed_mass += missed;
  bound_.total_mass += total;
}

}  // namespace dsjoin::core
