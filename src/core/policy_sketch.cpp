// SKCH (the second competitor of Section 6): the shared SketchSummaryEngine
// (AGMS sketches, periodic broadcasts, cached pairwise estimates) and the
// join-size-weighted routing on top.
#include <algorithm>
#include <cmath>

#include "policy_impl.hpp"

namespace dsjoin::core {

namespace {

// All nodes must build sketches from the same hash functions for the
// cross-node inner product to be meaningful.
std::uint64_t shared_sketch_seed(const SystemConfig& config) {
  return config.seed ^ 0x5ce7'c4f0ULL;
}

sketch::AgmsShape sketch_shape(const SystemConfig& config) {
  // i32 counters on the wire: budget/4 counters, s0:s1 = 5:1 (Section 6).
  return sketch::AgmsShape::for_budget(
      std::max<std::size_t>(config.summary_budget_bytes() / 4, 5));
}

}  // namespace

SketchSummaryEngine::SketchSummaryEngine(const SystemConfig& config,
                                         net::NodeId self)
    : config_(config), self_(self),
      local_{sketch::AgmsSketch(sketch_shape(config), shared_sketch_seed(config)),
             sketch::AgmsSketch(sketch_shape(config), shared_sketch_seed(config))},
      window_{stream::CountWindow(config.dft_window),
              stream::CountWindow(config.dft_window)},
      peers_(config.nodes) {}

void SketchSummaryEngine::observe_local(const stream::Tuple& tuple) {
  // Deferred: nothing reads local_[side] until the next estimate refresh or
  // broadcast, so the key only joins the pending batch here. flush_pending
  // runs the sketch's batched two-pass update at the first read.
  pending_[static_cast<std::size_t>(tuple.side)].push_back(tuple.key);
  ++local_tuples_;
}

void SketchSummaryEngine::flush_pending(std::size_t side) {
  auto& pending = pending_[side];
  if (pending.empty()) return;
  key_scratch_.clear();
  evicted_scratch_.clear();
  for (const std::int64_t key : pending) {
    key_scratch_.push_back(static_cast<std::uint64_t>(key));
    if (const auto evicted = window_[side].insert(key)) {
      evicted_scratch_.push_back(static_cast<std::uint64_t>(*evicted));
    }
  }
  local_[side].update_batch(key_scratch_, +1);
  local_[side].update_batch(evicted_scratch_, -1);
  pending.clear();
}

void SketchSummaryEngine::apply_sketch(net::NodeId peer, stream::StreamSide side,
                                       sketch::AgmsSketch sketch) {
  // Shape and seed must match the experiment's: estimate_join walks the
  // local grid over the remote counters, and only a shared hash family
  // makes their inner product an estimate.
  const sketch::AgmsSketch& mine = local_[0];
  if (sketch.shape().s0 != mine.shape().s0 ||
      sketch.shape().s1 != mine.shape().s1 || sketch.seed() != mine.seed()) {
    return;
  }
  auto& state = peers_[peer];
  state.remote[static_cast<std::size_t>(side)].update(std::move(sketch));
  state.est_dirty = {true, true};
}

std::vector<OutboundSummary> SketchSummaryEngine::maintenance(double /*now*/) {
  // Local windows drift every tuple; refresh the cached pairwise estimates
  // once per epoch even without new remote snapshots.
  if (local_tuples_ % config_.summary_epoch_tuples == 0) {
    for (auto& peer : peers_) peer.est_dirty = {true, true};
  }
  if (local_tuples_ - last_broadcast_tuple_ < config_.summary_epoch_tuples) {
    return {};
  }
  last_broadcast_tuple_ = local_tuples_;
  common::BufferWriter writer;
  for (std::size_t side = 0; side < 2; ++side) {
    flush_pending(side);
    summary_codec::encode_sketch(writer, static_cast<stream::StreamSide>(side),
                                 local_[side]);
  }
  SummaryBlock block{std::move(writer).take()};
  std::vector<OutboundSummary> out;
  for (net::NodeId j = 0; j < config_.nodes; ++j) {
    if (j != self_) out.push_back(OutboundSummary{j, block, SummaryFamily::kSketch});
  }
  return out;
}

double SketchSummaryEngine::refreshed_estimate(net::NodeId peer,
                                               std::size_t tuple_side) {
  auto& state = peers_[peer];
  if (state.est_dirty[tuple_side]) {
    flush_pending(tuple_side);
    const std::size_t opposite = 1 - tuple_side;
    const auto* remote = state.remote[opposite].sketch();
    state.est[tuple_side] =
        remote == nullptr
            ? 0.0
            : std::max(sketch::AgmsSketch::estimate_join(local_[tuple_side], *remote),
                       0.0);
    state.est_dirty[tuple_side] = false;
  }
  return state.est[tuple_side];
}

SketchPolicy::SketchPolicy(const SystemConfig& config, double throttle,
                           net::NodeId self, SummarySubstrate& substrate)
    : RoutingPolicy(substrate), config_(config), self_(self),
      throttle_(throttle), engine_(&substrate.sketch()),
      rng_(config.seed ^ (0x5ce7'beefULL + self)) {}

std::vector<net::NodeId> SketchPolicy::route(const stream::Tuple& tuple) {
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

  // Join-size estimates are key-independent, so the full budget is always
  // spent — the structural reason SKCH trails the membership-testing
  // policies in messages per result tuple (Figure 9's ordering). When every
  // estimate is zero (noisy sketches on weakly-joining streams) the budget
  // is spread uniformly: SKCH has no notion of "send nothing".
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
