#include "dsjoin/core/schedule.hpp"

#include <cmath>
#include <queue>

#include "dsjoin/core/oracle.hpp"

namespace dsjoin::core {

namespace {
std::size_t slot(net::NodeId node, stream::StreamSide side) {
  return static_cast<std::size_t>(node) * 2 + static_cast<std::size_t>(side);
}
}  // namespace

ArrivalSource::ArrivalSource(const SystemConfig& config)
    : quota_(config.tuples_per_node), rate_(config.arrivals_per_second) {
  stream::WorkloadParams params;
  params.nodes = config.nodes;
  params.regions = config.regions;
  params.domain = config.domain;
  params.locality = config.locality;
  params.noise = config.noise;
  params.seed = config.seed;
  workload_ = stream::make_workload(config.workload, params);

  common::Xoshiro256 root(config.seed ^ 0xa771'7a1eULL);
  const std::size_t slots = static_cast<std::size_t>(config.nodes) * 2;
  rngs_.reserve(slots);
  for (std::size_t i = 0; i < slots; ++i) rngs_.push_back(root.fork());
  emitted_.assign(slots, 0);
}

bool ArrivalSource::exhausted(net::NodeId node, stream::StreamSide side) const {
  return emitted_[slot(node, side)] >= quota_;
}

double ArrivalSource::next_gap(net::NodeId node, stream::StreamSide side) {
  return rngs_[slot(node, side)].next_exponential(rate_);
}

stream::Tuple ArrivalSource::emit(net::NodeId node, stream::StreamSide side,
                                  double now) {
  stream::Tuple tuple;
  tuple.id = next_tuple_id_++;
  tuple.key = workload_->next_key(node, side, now);
  tuple.timestamp = now;
  tuple.origin = node;
  tuple.side = side;
  ++emitted_[slot(node, side)];
  ++total_emitted_;
  return tuple;
}

ArrivalSchedule ArrivalSchedule::build(const SystemConfig& config) {
  ArrivalSource source(config);

  // Per-slot arrival times: exponential inter-arrivals from t = 0. Each
  // slot's gap stream is independent, so generating slot-by-slot draws the
  // same variates the simulator draws interleaved.
  const std::size_t slots = static_cast<std::size_t>(config.nodes) * 2;
  std::vector<std::vector<double>> times(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    const auto node = static_cast<net::NodeId>(s / 2);
    const auto side = static_cast<stream::StreamSide>(s % 2);
    times[s].reserve(config.tuples_per_node);
    double t = 0.0;
    for (std::uint64_t i = 0; i < config.tuples_per_node; ++i) {
      t += source.next_gap(node, side);
      times[s].push_back(t);
    }
  }

  // Global merge in (time, slot) order. Emitting in merge order gives ids
  // dense from 1 and consumes each slot's workload key stream in its own
  // time order — the simulator's per-slot call sequence exactly.
  struct HeapItem {
    double time;
    std::size_t slot;
    std::size_t index;
  };
  auto later = [](const HeapItem& a, const HeapItem& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.slot > b.slot;
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(later)> heap(
      later);
  for (std::size_t s = 0; s < slots; ++s) {
    if (!times[s].empty()) heap.push({times[s][0], s, 0});
  }

  ArrivalSchedule schedule;
  schedule.tuples.reserve(slots * config.tuples_per_node);
  while (!heap.empty()) {
    const HeapItem item = heap.top();
    heap.pop();
    const auto node = static_cast<net::NodeId>(item.slot / 2);
    const auto side = static_cast<stream::StreamSide>(item.slot % 2);
    schedule.tuples.push_back(source.emit(node, side, item.time));
    schedule.makespan_s = item.time;
    if (item.index + 1 < times[item.slot].size()) {
      heap.push({times[item.slot][item.index + 1], item.slot, item.index + 1});
    }
  }
  return schedule;
}

std::uint64_t exact_pairs(const ArrivalSchedule& schedule, double half_width) {
  ExactJoinOracle oracle(half_width);
  for (const auto& tuple : schedule.tuples) oracle.observe(tuple);
  return oracle.total_pairs();
}

std::uint64_t count_false_pairs(const ArrivalSchedule& schedule,
                                double half_width,
                                std::span<const stream::ResultPair> pairs) {
  // Dense ids: tuple `id` sits at index id - 1. An id with no such slot,
  // or whose slot holds another tuple, names no arrival.
  const auto& tuples = schedule.tuples;
  const auto find = [&tuples](std::uint64_t id) -> const stream::Tuple* {
    if (id == 0 || id > tuples.size() || tuples[id - 1].id != id) {
      return nullptr;
    }
    return &tuples[id - 1];
  };

  std::uint64_t false_pairs = 0;
  for (const auto& pair : pairs) {
    const stream::Tuple* r = find(pair.r_id);
    const stream::Tuple* s = find(pair.s_id);
    const bool genuine = r != nullptr && s != nullptr &&
                         r->side == stream::StreamSide::kR &&
                         s->side == stream::StreamSide::kS && r->key == s->key &&
                         std::abs(r->timestamp - s->timestamp) <= half_width;
    if (!genuine) ++false_pairs;
  }
  return false_pairs;
}

}  // namespace dsjoin::core
