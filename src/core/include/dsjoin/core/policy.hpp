// Routing (Section 5 and the Section 6 competitors).
//
// A query's RoutingPolicy decides, per locally arriving tuple, which peers
// receive a copy: the flow filtering of Figure 2. BASE broadcasts and RR
// cycles through the peers. Every other policy runs one scheme
// (Sections 5.2-5.3), written once in RoutingPolicy::route:
//
//   1. score every peer j for the tuple from the query's summary-family
//      engine; a peer whose summary has not arrived yet scores 1.0:
//      DFT   -> flow coefficient rho_{i,j} (Eq. 4),
//      DFTT  -> count of the key in the reconstructed remote window
//               (Section 5.3's JoinEstimate),
//      BLOOM -> membership in the remote Bloom snapshot,
//      SKCH  -> AGMS join-size estimate between the local and remote
//               windows,
//      SPEC  -> truncated-Parseval join-size estimate (the deterministic
//               counterpart of SKCH),
//      SMPL  -> Horvitz-Thompson match estimate from the remote sample;
//   2. water-fill forwarding probabilities p_{i,j} = min(1, floor + w *
//      score_j) so that sum_j p_{i,j} equals the per-node budget T_i
//      (Eq. 9), where T_i = (N-1)^throttle spans O(1) (throttle 0) .. N-1
//      (throttle 1, degenerating to BASE). The epsilon calibrator bisects
//      the throttle;
//   3. draw each peer once from the query's RNG stream.
//
// What differs per family is the score, the exploration floor (throttle^6
// for the membership families DFTT and BLOOM, 5% of the uniform share for
// the rest), SKCH's and SPEC's uniform spread when every score is 0, the
// DFT family's uniform-case fallback to round-robin (vanishing relative
// spread of the rhos; Theorem 1 discussion) and SMPL's per-peer bound
// masses (DESIGN.md §14). The summary state the scores read lives in the
// node's SummarySubstrate, which the node drives itself (DESIGN.md §15).
#pragma once

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

/// One registered query's routing: its RNG stream, throttle, fallback
/// flag, probability diagnostics and bound terms. The summary state it
/// scores peers with lives in its family's engine of the node's
/// SummarySubstrate, shared with every other query of that family.
class RoutingPolicy {
 public:
  /// The policy of `spec` on the node `config` describes. Registers the
  /// query with its family's engine in `substrate`, which must outlive the
  /// policy and which the node feeds and maintains itself.
  RoutingPolicy(const SystemConfig& config, const QuerySpec& spec,
                net::NodeId self, SummarySubstrate& substrate);

  RoutingPolicy(const RoutingPolicy&) = delete;
  RoutingPolicy& operator=(const RoutingPolicy&) = delete;

  const char* name() const noexcept { return to_string(kind_); }

  /// Replaces `out` with the destinations for the tuple (excluding self;
  /// possibly empty). Call after the substrate has observed the tuple.
  /// `out` keeps its capacity, so a reused vector costs no allocation.
  void route(const stream::Tuple& tuple, std::vector<net::NodeId>& out);

  /// Sets forwarding aggressiveness in [0, 1] (see header comment; BASE
  /// ignores it).
  void set_throttle(double throttle) noexcept { throttle_ = throttle; }

  /// True while the uniform-worst-case fallback (round-robin) is engaged.
  bool fallback_active() const noexcept { return fallback_; }

  /// The last route's p_{i,j} indexed by peer id (self entry = 0), for
  /// diagnostics and tests. Empty for BASE and RR.
  const std::vector<double>& flow_probabilities() const noexcept {
    return last_probs_;
  }

  /// Accumulated predicted-epsilon bound terms ({0, 0} for policies with
  /// no error model — the engine reports "no bound" for those runs).
  EpsilonBoundTerms epsilon_bound_terms() const noexcept { return bound_; }

 private:
  /// One peer's signal for the tuple in flight.
  struct PeerScore {
    double score = 1.0;   ///< an unseeded peer explores with full weight
    bool seeded = false;  ///< the peer's summary has arrived
    double rho = 0.0;     ///< DFT family: what the fallback detector reads
    double mean = 0.0;    ///< SMPL: match mass credited to the bound
    double upper = 0.0;   ///< SMPL: confidence-inflated match mass
  };

  /// Scores `peer` from the family engine. `unseeded_upper` is SMPL's
  /// bound charge for a peer whose sample has not arrived.
  PeerScore score(net::NodeId peer, const stream::Tuple& tuple,
                  double unseeded_upper);
  /// Appends ~T peers in cyclic order to `out`: RR, and the DFT family's
  /// fallback.
  void round_robin(double budget, std::vector<net::NodeId>& out);

  PolicyKind kind_;
  net::NodeId self_;
  std::uint32_t nodes_;
  std::int64_t tolerance_;
  std::uint64_t warmup_tuples_;  ///< DFT family: local tuples before the
                                 ///< fallback detector may engage
  double throttle_;
  SummarySubstrate* substrate_;
  common::Xoshiro256 rng_;
  std::vector<net::NodeId> peers_;  ///< every node but self, ascending
  net::NodeId cursor_ = 0;
  bool fallback_ = false;
  std::vector<double> last_probs_;
  EpsilonBoundTerms bound_;
  // Per-route scratch, indexed like peers_.
  std::vector<PeerScore> peer_scores_;
  std::vector<double> scores_;  ///< what the water-fill reads
  std::vector<double> probs_;   ///< what the water-fill writes
};

/// Water-fills probabilities p_j = min(1, floor + w * score_j) with
/// sum_j p_j == min(budget, n) (n = scores.size()) into `probs`, which it
/// resizes to n. Zero-score vectors get the floor alone. Exposed for tests.
void allocate_flow_probabilities(std::span<const double> scores, double budget,
                                 double floor, std::vector<double>& probs);

/// The per-node message budget T_i for a throttle in [0,1]:
/// T = (N-1)^throttle, clamped to [1, N-1].
double throttle_to_budget(double throttle, std::uint32_t nodes) noexcept;

}  // namespace dsjoin::core
