// SKCH (the second competitor of Section 6): the SketchSummaryEngine (AGMS
// sketches and cached pairwise estimates). RoutingPolicy weighs peers by
// the estimated join sizes.
#include <algorithm>

#include "dsjoin/core/substrate.hpp"

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

SketchSummaryEngine::SketchSummaryEngine(const SystemConfig& config)
    : local_{sketch::AgmsSketch(sketch_shape(config), shared_sketch_seed(config)),
             sketch::AgmsSketch(sketch_shape(config), shared_sketch_seed(config))},
      window_{stream::CountWindow(config.dft_window),
              stream::CountWindow(config.dft_window)},
      peers_(config.nodes) {}

void SketchSummaryEngine::observe_local(const stream::Tuple& tuple) {
  // Deferred: nothing reads local_[side] until the next estimate refresh or
  // broadcast, so the key only joins the pending batch here. flush_pending
  // runs the sketch's batched two-pass update at the first read.
  pending_[static_cast<std::size_t>(tuple.side)].push_back(tuple.key);
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

void SketchSummaryEngine::close_epoch() {
  for (auto& peer : peers_) peer.est_dirty = {true, true};
}

SummaryBlock SketchSummaryEngine::snapshot() {
  common::BufferWriter writer;
  for (std::size_t side = 0; side < 2; ++side) {
    flush_pending(side);
    summary_codec::encode_sketch(writer, static_cast<stream::StreamSide>(side),
                                 local_[side]);
  }
  return SummaryBlock{std::move(writer).take()};
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

}  // namespace dsjoin::core
