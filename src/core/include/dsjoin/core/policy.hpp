// Routing policies (Section 5 and the Section 6 competitors).
//
// A policy decides, per locally arriving tuple, which peers receive a copy —
// the flow filtering of Figure 2 — and maintains the summaries that inform
// that decision. All approximate policies share one probabilistic scheme:
//
//   1. score every peer j for the tuple (policy-specific signal:
//      DFT   -> cross-correlation coefficient rho_{i,j} (Eq. 4),
//      DFTT  -> membership count of the key in the reconstructed remote
//               window (Section 5.3's JoinEstimate),
//      BLOOM -> membership in the remote Bloom snapshot,
//      SKCH  -> AGMS join-size estimate between the local and remote
//               windows);
//   2. water-fill forwarding probabilities p_{i,j} = min(1, w_i * score_j)
//      so that sum_j p_{i,j} equals the per-node budget T_i (Eq. 9), where
//      T_i = (N-1)^throttle spans O(1) (throttle 0) .. N-1 (throttle 1,
//      degenerating to BASE). The epsilon calibrator bisects the throttle.
//
// The DFT family additionally detects the uniform worst case (vanishing
// variance of the scores; Theorem 1 discussion) and falls back to
// round-robin.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/core/config.hpp"
#include "dsjoin/core/wire.hpp"
#include "dsjoin/net/frame.hpp"
#include "dsjoin/stream/tuple.hpp"

namespace dsjoin::core {

class SummarySubstrate;

/// A standalone summary destined for one peer. `family` identifies the
/// emitting engine so multi-query nodes can attribute the frame's traffic
/// to the family's lowest-id subscriber.
struct OutboundSummary {
  net::NodeId peer;
  SummaryBlock block;
  SummaryFamily family = SummaryFamily::kNone;
};

/// Accumulated terms for a run-level predicted epsilon upper bound
/// (policies that can derive one; SMPL today). Per routed tuple the policy
/// adds its confidence-inflated estimate of match mass it chose not to
/// chase to `missed_mass` and its estimate of the total match mass in play
/// to `total_mass`; the experiment engine aggregates both across nodes and
/// reports missed/total as predicted_epsilon_bound (DESIGN.md §14).
struct EpsilonBoundTerms {
  double missed_mass = 0.0;
  double total_mass = 0.0;
};

/// Per-query routing policy instance. Since the substrate refactor
/// (DESIGN.md §15) a policy holds only *routing* state — its RNG stream,
/// throttle, fallback flag and probability diagnostics. The summary state
/// it consults (windows, coefficient stores, filters, sketches, samples)
/// lives in a core::SummarySubstrate engine, either shared with other
/// queries of the same family (the 4-arg factory) or privately owned (the
/// 2-arg factory — the historical self-contained policy object).
class RoutingPolicy {
 public:
  virtual ~RoutingPolicy();

  RoutingPolicy(const RoutingPolicy&) = delete;
  RoutingPolicy& operator=(const RoutingPolicy&) = delete;

  virtual const char* name() const noexcept = 0;

  /// Feeds a locally arriving tuple into the substrate's summaries
  /// (sliding DFTs / Bloom / sketch windows). Called before route().
  /// Forwards to the substrate — a node hosting several queries calls the
  /// substrate directly, once per tuple, instead.
  void observe_local(const stream::Tuple& tuple);

  /// Destinations for the tuple (excluding self; possibly empty).
  virtual std::vector<net::NodeId> route(const stream::Tuple& tuple) = 0;

  /// Summary bytes to piggyback on a tuple frame to `peer` (may be empty).
  /// Marks the drained state as synced to that peer. Substrate-forwarded.
  SummaryBlock piggyback_for(net::NodeId peer);

  /// Ingests a summary block received from `peer`. Substrate-forwarded,
  /// status included.
  common::Status on_summary(net::NodeId peer, const SummaryBlock& block);

  /// Called once per local arrival after routing: standalone summaries for
  /// peers that have not heard from this node for a summary epoch
  /// (Figure 7: "if a tuple message was not sent to some site for a long
  /// period, the batch of updates are transmitted on their own").
  /// Substrate-forwarded.
  std::vector<OutboundSummary> maintenance(double now);

  /// Sets forwarding aggressiveness in [0, 1] (see header comment).
  virtual void set_throttle(double throttle) = 0;

  /// True while the uniform-worst-case fallback (round-robin) is engaged.
  virtual bool fallback_active() const noexcept { return false; }

  /// True when routing consults peer summary state (DFT/DFTT/BLOOM/SKCH/
  /// SPEC/SMPL). Drivers use this to decide whether virtual-time summary
  /// synchronization (watermarks, visibility buffering) is needed at all;
  /// BASE/RR runs pay zero overhead.
  bool uses_summaries() const noexcept;

  /// Current p_{i,j} estimates indexed by peer id (self entry = 0), for
  /// diagnostics and tests. Empty if the policy has no such notion.
  virtual std::vector<double> flow_probabilities() const { return {}; }

  /// Accumulated predicted-epsilon bound terms ({0, 0} for policies with
  /// no error model — the engine reports "no bound" for those runs).
  virtual EpsilonBoundTerms epsilon_bound_terms() const noexcept { return {}; }

  /// The substrate this policy's summaries live in.
  SummarySubstrate& substrate() noexcept { return *substrate_; }

  /// Standalone factory: the policy of config.queries.front(), owning a
  /// private substrate — the self-contained object the policy tests use.
  static std::unique_ptr<RoutingPolicy> create(const SystemConfig& config,
                                               net::NodeId self);

  /// Shared-substrate factory: the policy of `spec` on the node `config`
  /// describes. It registers its summary family's engine in `substrate`
  /// and keeps only routing state of its own. `substrate` must outlive the
  /// policy.
  static std::unique_ptr<RoutingPolicy> create(const SystemConfig& config,
                                               const QuerySpec& spec,
                                               net::NodeId self,
                                               SummarySubstrate& substrate);

 protected:
  explicit RoutingPolicy(SummarySubstrate& substrate);  // out-of-line:
  // keeps SummarySubstrate an incomplete type for policy.hpp includers

  SummarySubstrate* substrate_;

 private:
  std::unique_ptr<SummarySubstrate> owned_;  // set by the 2-arg factory
};

/// Water-fills probabilities p_j = min(1, floor + w * score_j) with
/// sum_j p_j == min(budget, n) (n = scores.size()). Zero-score vectors get
/// the uniform allocation budget/n. Exposed for tests.
std::vector<double> allocate_flow_probabilities(std::span<const double> scores,
                                                double budget, double floor);

/// The per-node message budget T_i for a throttle in [0,1]:
/// T = (N-1)^throttle, clamped to [1, N-1].
double throttle_to_budget(double throttle, std::uint32_t nodes) noexcept;

}  // namespace dsjoin::core
