// Concrete routing-policy classes (private to the core library; the public
// surface is RoutingPolicy::create in policy.hpp).
//
// Post-substrate (DESIGN.md §15) these classes hold routing state only:
// the per-query RNG stream, throttle, fallback bookkeeping and probability
// diagnostics. The summary state each consults lives in the family engine
// of the SummarySubstrate passed at construction, shared with every other
// query of the same family on the node.
#pragma once

#include <vector>

#include "dsjoin/core/policy.hpp"
#include "dsjoin/core/substrate.hpp"

namespace dsjoin::core {

/// BASE: exact join, broadcast everything (Section 5.1).
class BasePolicy final : public RoutingPolicy {
 public:
  BasePolicy(const SystemConfig& config, net::NodeId self,
             SummarySubstrate& substrate);

  const char* name() const noexcept override {
    return to_string(PolicyKind::kBase);
  }
  std::vector<net::NodeId> route(const stream::Tuple&) override;
  void set_throttle(double) override {}

 private:
  net::NodeId self_;
  std::uint32_t nodes_;
};

/// RR: round-robin to ~T_i peers per tuple — the paper's fallback heuristic
/// for the detected uniform worst case, also usable standalone.
class RoundRobinPolicy final : public RoutingPolicy {
 public:
  RoundRobinPolicy(const SystemConfig& config, double throttle,
                   net::NodeId self, SummarySubstrate& substrate);

  const char* name() const noexcept override {
    return to_string(PolicyKind::kRoundRobin);
  }
  std::vector<net::NodeId> route(const stream::Tuple&) override;
  void set_throttle(double throttle) override { throttle_ = throttle; }

 private:
  net::NodeId self_;
  std::uint32_t nodes_;
  double throttle_;
  net::NodeId cursor_ = 0;
};

/// Shared routing logic of DFT and DFTT (Sections 5.2-5.3): derives the
/// flow filter from the shared DftSummaryEngine's coefficients.
class DftFamilyPolicy : public RoutingPolicy {
 public:
  DftFamilyPolicy(const SystemConfig& config, double throttle,
                  net::NodeId self, SummarySubstrate& substrate,
                  bool reconstruct);

  const char* name() const noexcept override {
    return to_string(reconstruct_ ? PolicyKind::kDftt : PolicyKind::kDft);
  }
  std::vector<net::NodeId> route(const stream::Tuple& tuple) override;
  void set_throttle(double throttle) override { throttle_ = throttle; }
  bool fallback_active() const noexcept override { return fallback_; }
  std::vector<double> flow_probabilities() const override { return last_probs_; }

 private:
  SystemConfig config_;
  net::NodeId self_;
  bool reconstruct_;
  double throttle_;
  DftSummaryEngine* engine_;
  common::Xoshiro256 rng_;
  bool fallback_ = false;
  net::NodeId rr_cursor_ = 0;
  std::vector<double> last_probs_;
};

/// BLOOM: routing on membership in peers' counting-Bloom snapshots.
class BloomPolicy final : public RoutingPolicy {
 public:
  BloomPolicy(const SystemConfig& config, double throttle, net::NodeId self,
              SummarySubstrate& substrate);

  const char* name() const noexcept override {
    return to_string(PolicyKind::kBloom);
  }
  std::vector<net::NodeId> route(const stream::Tuple& tuple) override;
  void set_throttle(double throttle) override { throttle_ = throttle; }
  std::vector<double> flow_probabilities() const override { return last_probs_; }

 private:
  SystemConfig config_;
  net::NodeId self_;
  double throttle_;
  BloomSummaryEngine* engine_;
  common::Xoshiro256 rng_;
  std::vector<double> last_probs_;
};

/// SKCH: flow weights from pairwise AGMS join-size estimates.
class SketchPolicy final : public RoutingPolicy {
 public:
  SketchPolicy(const SystemConfig& config, double throttle, net::NodeId self,
               SummarySubstrate& substrate);

  const char* name() const noexcept override {
    return to_string(PolicyKind::kSketch);
  }
  std::vector<net::NodeId> route(const stream::Tuple& tuple) override;
  void set_throttle(double throttle) override { throttle_ = throttle; }
  std::vector<double> flow_probabilities() const override { return last_probs_; }

 private:
  SystemConfig config_;
  net::NodeId self_;
  double throttle_;
  SketchSummaryEngine* engine_;
  common::Xoshiro256 rng_;
  std::vector<double> last_probs_;
};

/// SPEC (ablation A3, ours): flow weights from the truncated Parseval
/// join-size estimate — the deterministic counterpart of SKCH.
class SpectrumPolicy final : public RoutingPolicy {
 public:
  SpectrumPolicy(const SystemConfig& config, double throttle, net::NodeId self,
                 SummarySubstrate& substrate);

  const char* name() const noexcept override {
    return to_string(PolicyKind::kSpectrum);
  }
  std::vector<net::NodeId> route(const stream::Tuple& tuple) override;
  void set_throttle(double throttle) override { throttle_ = throttle; }
  std::vector<double> flow_probabilities() const override { return last_probs_; }

 private:
  SystemConfig config_;
  net::NodeId self_;
  double throttle_;
  SpectrumSummaryEngine* engine_;
  common::Xoshiro256 rng_;
  std::vector<double> last_probs_;
};

/// SMPL (ours): per-key flow weights from Horvitz–Thompson match estimates
/// against peers' opposite-side samples, plus an accumulated predicted-
/// epsilon upper bound from the estimator's variance (DESIGN.md §14).
class SamplePolicy final : public RoutingPolicy {
 public:
  SamplePolicy(const SystemConfig& config, double throttle, net::NodeId self,
               SummarySubstrate& substrate);

  const char* name() const noexcept override {
    return to_string(PolicyKind::kSample);
  }
  std::vector<net::NodeId> route(const stream::Tuple& tuple) override;
  void set_throttle(double throttle) override { throttle_ = throttle; }
  std::vector<double> flow_probabilities() const override { return last_probs_; }
  EpsilonBoundTerms epsilon_bound_terms() const noexcept override {
    return bound_;
  }

 private:
  SystemConfig config_;
  net::NodeId self_;
  double throttle_;
  SampleSummaryEngine* engine_;
  common::Xoshiro256 rng_;
  std::vector<double> last_probs_;
  EpsilonBoundTerms bound_;
};

}  // namespace dsjoin::core
