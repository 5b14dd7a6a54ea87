// BLOOM (the first competitor of Section 6): the shared BloomSummaryEngine
// (counting filters, snapshot broadcasts) and membership routing on top.
#include <cmath>

#include "policy_impl.hpp"

namespace dsjoin::core {

namespace {

std::size_t bloom_bits(const SystemConfig& config) {
  // Snapshot wire size is matched to the DFT summary budget (Section 6:
  // "we adjust the size of the Bloom filters, sketches and DFT coefficients
  // to be the same").
  return std::max<std::size_t>(config.summary_budget_bytes() * 8, 64);
}

}  // namespace

BloomSummaryEngine::BloomSummaryEngine(const SystemConfig& config,
                                       net::NodeId self)
    : config_(config), self_(self),
      counting_{sketch::CountingBloomFilter(
                    bloom_bits(config),
                    sketch::optimal_hash_count(bloom_bits(config), config.dft_window),
                    config.seed ^ 0xb100'0000ULL),
                sketch::CountingBloomFilter(
                    bloom_bits(config),
                    sketch::optimal_hash_count(bloom_bits(config), config.dft_window),
                    config.seed ^ 0xb100'0001ULL)},
      window_{stream::CountWindow(config.dft_window),
              stream::CountWindow(config.dft_window)},
      peers_(config.nodes) {}

void BloomSummaryEngine::observe_local(const stream::Tuple& tuple) {
  // Deferred: routing consults peer snapshots only, so the local counting
  // filter is not read until the next broadcast. The key joins the
  // pending batch; flush_pending applies it through the filter's two-pass
  // batch update at snapshot time.
  pending_[static_cast<std::size_t>(tuple.side)].push_back(tuple.key);
  ++local_tuples_;
}

void BloomSummaryEngine::flush_pending(std::size_t side) {
  auto& pending = pending_[side];
  if (pending.empty()) return;
  // Each insert is followed by the erase of the key it evicted: the
  // interleaving matters because counting-Bloom clamps make updates
  // order-dependent.
  key_scratch_.clear();
  delta_scratch_.clear();
  for (const std::int64_t key : pending) {
    key_scratch_.push_back(static_cast<std::uint64_t>(key));
    delta_scratch_.push_back(+1);
    if (const auto evicted = window_[side].insert(key)) {
      key_scratch_.push_back(static_cast<std::uint64_t>(*evicted));
      delta_scratch_.push_back(-1);
    }
  }
  counting_[side].apply_batch(key_scratch_, delta_scratch_);
  pending.clear();
}

void BloomSummaryEngine::apply_snapshot(net::NodeId peer, stream::StreamSide side,
                                        sketch::BloomFilter filter) {
  peers_[peer].remote[static_cast<std::size_t>(side)].update(std::move(filter));
}

std::vector<OutboundSummary> BloomSummaryEngine::maintenance(double /*now*/) {
  if (local_tuples_ - last_broadcast_tuple_ < config_.summary_epoch_tuples) {
    return {};
  }
  last_broadcast_tuple_ = local_tuples_;
  common::BufferWriter writer;
  for (std::size_t side = 0; side < 2; ++side) {
    flush_pending(side);
    summary_codec::encode_bloom(writer, static_cast<stream::StreamSide>(side),
                                counting_[side].snapshot());
  }
  SummaryBlock block{std::move(writer).take()};
  std::vector<OutboundSummary> out;
  for (net::NodeId j = 0; j < config_.nodes; ++j) {
    if (j != self_) out.push_back(OutboundSummary{j, block, SummaryFamily::kBloom});
  }
  return out;
}

BloomPolicy::BloomPolicy(const SystemConfig& config, double throttle,
                         net::NodeId self, SummarySubstrate& substrate)
    : RoutingPolicy(substrate), config_(config), self_(self),
      throttle_(throttle), engine_(&substrate.bloom()),
      rng_(config.seed ^ (0xb100'beefULL + self)) {}

std::vector<net::NodeId> BloomPolicy::route(const stream::Tuple& tuple) {
  const std::uint32_t n = config_.nodes;
  const double budget = throttle_to_budget(throttle_, n);
  const auto opposite = static_cast<std::size_t>(stream::opposite(tuple.side));

  std::vector<net::NodeId> peer_ids;
  std::vector<double> scores;
  peer_ids.reserve(n - 1);
  for (net::NodeId j = 0; j < n; ++j) {
    if (j == self_) continue;
    peer_ids.push_back(j);
    if (!engine_->remote_seeded(j, opposite)) {
      scores.push_back(1.0);  // bootstrap exploration
    } else {
      // Bloom filters hold the exact remote keys, so the membership query is
      // the exact join predicate (no reconstruction slack).
      scores.push_back(engine_->remote_contains(j, opposite, tuple.key, 0)
                           ? 1.0
                           : 0.0);
    }
  }

  // Membership is key-dependent: non-hits are explored only lightly.
  const double floor = std::pow(throttle_, 6);
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
