// BLOOM (the first competitor of Section 6): the BloomSummaryEngine
// (counting filters and their snapshots). RoutingPolicy routes on
// membership in the peers' snapshots.
#include <algorithm>

#include "dsjoin/core/substrate.hpp"

namespace dsjoin::core {

namespace {

std::size_t bloom_bits(const SystemConfig& config) {
  // Snapshot wire size is matched to the DFT summary budget (Section 6:
  // "we adjust the size of the Bloom filters, sketches and DFT coefficients
  // to be the same").
  return std::max<std::size_t>(config.summary_budget_bytes() * 8, 64);
}

}  // namespace

BloomSummaryEngine::BloomSummaryEngine(const SystemConfig& config)
    : counting_{sketch::CountingBloomFilter(
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

SummaryBlock BloomSummaryEngine::snapshot() {
  common::BufferWriter writer;
  for (std::size_t side = 0; side < 2; ++side) {
    flush_pending(side);
    summary_codec::encode_bloom(writer, static_cast<stream::StreamSide>(side),
                                counting_[side].snapshot());
  }
  return SummaryBlock{std::move(writer).take()};
}

}  // namespace dsjoin::core
