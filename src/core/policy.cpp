#include "dsjoin/core/policy.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "dsjoin/core/substrate.hpp"
#include "policy_impl.hpp"

namespace dsjoin::core {

RoutingPolicy::RoutingPolicy(SummarySubstrate& substrate)
    : substrate_(&substrate) {}

RoutingPolicy::~RoutingPolicy() = default;

// The summary half of every policy lives in the substrate; the base class
// forwards the ingest-path calls so a standalone policy (2-arg factory)
// behaves exactly like the pre-substrate self-contained object. A node
// hosting several queries bypasses these and drives its substrate directly,
// once per tuple.
void RoutingPolicy::observe_local(const stream::Tuple& tuple) {
  substrate_->observe_local(tuple);
}

SummaryBlock RoutingPolicy::piggyback_for(net::NodeId peer) {
  return substrate_->piggyback_for(peer);
}

common::Status RoutingPolicy::on_summary(net::NodeId peer,
                                         const SummaryBlock& block) {
  return substrate_->on_summary(peer, block);
}

std::vector<OutboundSummary> RoutingPolicy::maintenance(double now) {
  return substrate_->maintenance(now);
}

bool RoutingPolicy::uses_summaries() const noexcept {
  return substrate_->uses_summaries();
}

double throttle_to_budget(double throttle, std::uint32_t nodes) noexcept {
  if (nodes < 2) return 0.0;
  const double peers = static_cast<double>(nodes - 1);
  const double t = std::clamp(throttle, 0.0, 1.0);
  return std::clamp(std::pow(peers, t), 1.0, peers);
}

std::vector<double> allocate_flow_probabilities(std::span<const double> scores,
                                                double budget, double floor) {
  const std::size_t n = scores.size();
  std::vector<double> probs(n, 0.0);
  if (n == 0) return probs;
  floor = std::clamp(floor, 0.0, 1.0);
  budget = std::clamp(budget, 0.0, static_cast<double>(n));

  double score_sum = 0.0;
  for (double s : scores) score_sum += std::max(s, 0.0);
  if (score_sum <= 0.0) {
    // No signal at all: only the exploration floor flows.
    std::fill(probs.begin(), probs.end(), floor);
    return probs;
  }

  // Water-fill p_j = min(1, floor + w * s_j) with sum p_j = budget.
  // Iteratively saturate: peers that hit 1 are fixed, the rest share the
  // remaining budget proportionally to score. Terminates in <= n rounds.
  std::vector<bool> saturated(n, false);
  double fixed = 0.0;        // mass already assigned to saturated peers
  std::size_t sat_count = 0;
  for (std::size_t round = 0; round < n; ++round) {
    const double active = static_cast<double>(n - sat_count);
    double remaining = budget - fixed - floor * active;
    if (remaining < 0.0) remaining = 0.0;
    double active_score = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (!saturated[j]) active_score += std::max(scores[j], 0.0);
    }
    if (active_score <= 0.0) {
      for (std::size_t j = 0; j < n; ++j) {
        if (!saturated[j]) probs[j] = floor;
      }
      break;
    }
    const double w = remaining / active_score;
    bool newly_saturated = false;
    for (std::size_t j = 0; j < n; ++j) {
      if (saturated[j]) continue;
      const double p = floor + w * std::max(scores[j], 0.0);
      if (p >= 1.0) {
        probs[j] = 1.0;
        saturated[j] = true;
        fixed += 1.0;
        ++sat_count;
        newly_saturated = true;
      } else {
        probs[j] = p;
      }
    }
    if (!newly_saturated) break;
  }
  return probs;
}

std::unique_ptr<RoutingPolicy> RoutingPolicy::create(const SystemConfig& config,
                                                     net::NodeId self) {
  auto substrate = std::make_unique<SummarySubstrate>(config, self);
  auto policy = create(config, config.queries.front(), self, *substrate);
  if (policy != nullptr) policy->owned_ = std::move(substrate);
  return policy;
}

std::unique_ptr<RoutingPolicy> RoutingPolicy::create(const SystemConfig& config,
                                                     const QuerySpec& spec,
                                                     net::NodeId self,
                                                     SummarySubstrate& substrate) {
  const double throttle = spec.throttle;
  switch (spec.policy) {
    case PolicyKind::kBase:
      return std::make_unique<BasePolicy>(config, self, substrate);
    case PolicyKind::kRoundRobin:
      return std::make_unique<RoundRobinPolicy>(config, throttle, self,
                                                substrate);
    case PolicyKind::kDft:
      return std::make_unique<DftFamilyPolicy>(config, throttle, self,
                                               substrate,
                                               /*reconstruct=*/false);
    case PolicyKind::kDftt:
      return std::make_unique<DftFamilyPolicy>(config, throttle, self,
                                               substrate,
                                               /*reconstruct=*/true);
    case PolicyKind::kBloom:
      return std::make_unique<BloomPolicy>(config, throttle, self, substrate);
    case PolicyKind::kSketch:
      return std::make_unique<SketchPolicy>(config, throttle, self, substrate);
    case PolicyKind::kSpectrum:
      return std::make_unique<SpectrumPolicy>(config, throttle, self,
                                              substrate);
    case PolicyKind::kSample:
      return std::make_unique<SamplePolicy>(config, throttle, self, substrate);
  }
  assert(false && "unknown policy kind");
  return nullptr;
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

BasePolicy::BasePolicy(const SystemConfig& config, net::NodeId self,
                       SummarySubstrate& substrate)
    : RoutingPolicy(substrate), self_(self), nodes_(config.nodes) {}

std::vector<net::NodeId> BasePolicy::route(const stream::Tuple&) {
  std::vector<net::NodeId> out;
  out.reserve(nodes_ - 1);
  for (net::NodeId j = 0; j < nodes_; ++j) {
    if (j != self_) out.push_back(j);
  }
  return out;
}

RoundRobinPolicy::RoundRobinPolicy(const SystemConfig& config,
                                   double throttle, net::NodeId self,
                                   SummarySubstrate& substrate)
    : RoutingPolicy(substrate), self_(self), nodes_(config.nodes),
      throttle_(throttle) {}

std::vector<net::NodeId> RoundRobinPolicy::route(const stream::Tuple&) {
  const auto budget = throttle_to_budget(throttle_, nodes_);
  const auto k = static_cast<std::uint32_t>(std::lround(budget));
  std::vector<net::NodeId> out;
  out.reserve(k);
  for (std::uint32_t step = 0; step < k && step + 1 < nodes_; ++step) {
    cursor_ = (cursor_ + 1) % nodes_;
    if (cursor_ == self_) cursor_ = (cursor_ + 1) % nodes_;
    out.push_back(cursor_);
  }
  return out;
}

}  // namespace dsjoin::core
