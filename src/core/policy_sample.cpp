// SMPL (ours): the SampleSummaryEngine (stratified sliding-window
// reservoirs, lazily refreshed own-sample aggregates, remote samples).
// RoutingPolicy weighs peers by Horvitz–Thompson match estimates from it
// and accumulates the predicted-epsilon upper bound (DESIGN.md §14).
#include "dsjoin/core/substrate.hpp"

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

}  // namespace

SampleSummaryEngine::SampleSummaryEngine(const SystemConfig& config,
                                         net::NodeId self)
    : reservoir_{sampling::StratifiedReservoir(reservoir_options(config),
                                               reservoir_seed(config, self, 0)),
                 sampling::StratifiedReservoir(reservoir_options(config),
                                               reservoir_seed(config, self, 1))},
      peers_(config.nodes) {}

void SampleSummaryEngine::observe_local(const stream::Tuple& tuple) {
  reservoir_[static_cast<std::size_t>(tuple.side)].observe(tuple.key,
                                                           tuple.timestamp);
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

SummaryBlock SampleSummaryEngine::snapshot() {
  own_dirty_ = {true, true};
  common::BufferWriter writer;
  for (std::size_t side = 0; side < 2; ++side) {
    summary_codec::encode_sample(
        writer, static_cast<stream::StreamSide>(side), own_summary(side));
  }
  return SummaryBlock{std::move(writer).take()};
}

}  // namespace dsjoin::core
