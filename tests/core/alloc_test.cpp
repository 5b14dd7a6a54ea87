// Heap allocations on the simulator's per-frame and per-arrival paths.
//
// This file replaces the global operator new with a counting one, which is
// why it is an executable of its own: no other suite runs under it. Each
// test warms its path up first (buffers grow to their steady size), then
// counts the allocations of the calls it measures.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "dsjoin/core/config.hpp"
#include "dsjoin/core/policy.hpp"
#include "dsjoin/core/substrate.hpp"
#include "dsjoin/core/system.hpp"
#include "dsjoin/net/event_queue.hpp"
#include "dsjoin/net/sim_transport.hpp"

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Neither side is inlined: GCC would otherwise see malloc() meet operator
// delete, or free() meet a new-expression's pointer, and warn. The
// library's array forms call these. The nothrow forms (std::stable_sort's
// temporary buffer) are replaced too, so a sanitizer runtime that defines
// every form never pairs its allocation with this free().
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace dsjoin::core {
namespace {

// Allocations made by fn().
template <typename F>
std::size_t allocations_in(F&& fn) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  fn();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

TEST(Allocations, CountingOperatorNewIsInstalled) {
  // A direct call: a new-expression's allocation may be elided.
  EXPECT_EQ(allocations_in([] { ::operator delete(::operator new(16)); }), 1u);
}

// (a) Frame deliveries through SimTransport: once the event heap and slab
// have grown to the pending depth, sending and delivering a round of
// pre-built frames allocates nothing.
TEST(Allocations, SimTransportDeliversFramesWithoutAllocating) {
  constexpr std::size_t kFrames = 4096;
  net::EventQueue queue;
  net::SimTransport transport(queue, 3, net::WanProfile{}, 7);
  std::size_t delivered = 0;
  for (net::NodeId node = 0; node < 3; ++node) {
    transport.register_handler(node,
                               [&delivered](net::Frame&&) { ++delivered; });
  }
  const auto make_frames = [] {
    std::vector<net::Frame> frames(kFrames);
    for (std::size_t i = 0; i < kFrames; ++i) {
      frames[i].from = static_cast<net::NodeId>(i % 3);
      frames[i].to = static_cast<net::NodeId>((i + 1) % 3);
      frames[i].payload.assign(24 + i % 40, static_cast<std::uint8_t>(i));
    }
    return frames;
  };
  const auto send_and_run = [&](std::vector<net::Frame>& frames) {
    for (auto& frame : frames) {
      ASSERT_TRUE(transport.send(std::move(frame)).is_ok());
    }
    EXPECT_EQ(queue.pending(), kFrames);
    queue.run_all();
  };

  auto warmup = make_frames();
  send_and_run(warmup);
  auto frames = make_frames();
  EXPECT_EQ(allocations_in([&] { send_and_run(frames); }), 0u);
  EXPECT_EQ(delivered, 2 * kFrames);
}

// A small cluster of one query's routing state: each node's substrate is
// fed local tuples and receives every peer's summaries, so routes score
// seeded peers (and DFTT rebuilds its reconstructions) as in a run.
struct RoutingCluster {
  static constexpr std::uint32_t kNodes = 4;

  explicit RoutingCluster(PolicyKind kind) {
    config.nodes = kNodes;
    config.seed = 11;
    config.queries.front().policy = kind;
    config.queries.front().throttle = 0.5;
    for (net::NodeId id = 0; id < kNodes; ++id) {
      substrates.push_back(std::make_unique<SummarySubstrate>(config, id));
      policies.push_back(std::make_unique<RoutingPolicy>(
          config, config.queries.front(), id, *substrates.back()));
    }
  }

  // Every node observes one local tuple and ships its summaries; then
  // `route_all` runs every node's route for its tuple.
  template <typename Route>
  void step(std::uint64_t i, Route&& route_all) {
    tuples.clear();
    for (net::NodeId id = 0; id < kNodes; ++id) {
      stream::Tuple t;
      t.id = i * kNodes + id + 1;
      t.key = 1000 + static_cast<std::int64_t>((i * 7 + id * 3) % 64);
      t.side = i % 2 == 0 ? stream::StreamSide::kR : stream::StreamSide::kS;
      t.timestamp = static_cast<double>(i) * 0.01;
      t.origin = id;
      substrates[id]->observe_local(t);
      tuples.push_back(t);
    }
    for (net::NodeId from = 0; from < kNodes; ++from) {
      for (auto& summary : substrates[from]->maintenance(tuples[from].timestamp)) {
        ASSERT_TRUE(substrates[summary.peer]->on_summary(from, summary.block).is_ok());
      }
      for (net::NodeId to = 0; to < kNodes; ++to) {
        if (to == from) continue;
        const auto piggyback = substrates[from]->piggyback_for(to);
        if (!piggyback.empty()) {
          ASSERT_TRUE(substrates[to]->on_summary(from, piggyback).is_ok());
        }
      }
    }
    route_all();
  }

  SystemConfig config;
  std::vector<std::unique_ptr<SummarySubstrate>> substrates;
  std::vector<std::unique_ptr<RoutingPolicy>> policies;
  std::vector<stream::Tuple> tuples;
};

// (b) RoutingPolicy::route writes into the caller's vector and its own
// scratch: after warm-up, no policy allocates per route.
TEST(Allocations, RouteAllocatesNothingForEveryPolicy) {
  for (const PolicyName& entry : policy_names()) {
    RoutingCluster cluster(entry.kind);
    std::vector<std::vector<net::NodeId>> out(RoutingCluster::kNodes);
    std::size_t routed = 0;
    std::size_t allocations = 0;
    for (std::uint64_t i = 0; i < 1600; ++i) {
      cluster.step(i, [&] {
        const auto route_all = [&] {
          for (net::NodeId id = 0; id < RoutingCluster::kNodes; ++id) {
            cluster.policies[id]->route(cluster.tuples[id], out[id]);
            routed += out[id].size();
          }
        };
        if (i < 1200) {
          route_all();
        } else {
          allocations += allocations_in(route_all);
        }
      });
    }
    EXPECT_EQ(allocations, 0u) << entry.name;
    EXPECT_GT(routed, 0u) << entry.name;
  }
}

// (c) A whole simulator run: GoldenMultiQuery's config (sim-mq8's eight
// queries on 4 nodes x 400 tuples, seed 42). The bound sits above the
// count this code makes (about 14 per arrival) and far below the 93 a
// std::function per frame and per-call buffers made.
TEST(Allocations, MultiQueryRunStaysUnderPinnedAllocationsPerArrival) {
  constexpr double kMaxAllocationsPerArrival = 20.0;
  SystemConfig config;
  config.workload = "ZIPF";
  config.nodes = 4;
  config.tuples_per_node = 400;
  config.seed = 42;
  auto queries = parse_queries(
      "DFTT:0.3:5;SMPL:0.4:7.5;BLOOM:0.5:10;SKCH:0.6:12.5;"
      "DFTT:0.7:5;SMPL:0.3:7.5;BLOOM:0.4:10;SKCH:0.5:12.5",
      config);
  ASSERT_TRUE(queries.is_ok());
  config.queries = std::move(queries).value();

  DspSystem system(config);
  ExperimentResult result;
  const std::size_t allocations = allocations_in([&] { result = system.run(); });
  ASSERT_EQ(result.total_arrivals, 3200u);
  const double per_arrival = static_cast<double>(allocations) /
                             static_cast<double>(result.total_arrivals);
  EXPECT_LT(per_arrival, kMaxAllocationsPerArrival);
  RecordProperty("allocations_per_arrival", std::to_string(per_arrival));
}

}  // namespace
}  // namespace dsjoin::core
