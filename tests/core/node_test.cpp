// Direct Node tests: one or two nodes driven by hand over an ideal
// simulated network, so every join path and frame reaction is observable.
#include "dsjoin/core/node.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "dsjoin/core/node_host.hpp"
#include "dsjoin/core/summary_state.hpp"
#include "dsjoin/core/wire.hpp"
#include "dsjoin/net/sim_transport.hpp"

namespace dsjoin::core {
namespace {

struct Harness {
  explicit Harness(PolicyKind kind, std::uint32_t nodes = 2) {
    config.queries.front().policy = kind;
    config.nodes = nodes;
    config.queries.front().join_half_width_s = 5.0;
    transport = std::make_unique<net::SimTransport>(queue, nodes,
                                                    net::WanProfile::ideal(), 1);
    metrics.set_node_count(nodes);
    for (net::NodeId id = 0; id < nodes; ++id) {
      built.push_back(std::make_unique<Node>(config, id, *transport, metrics));
      Node* node = built.back().get();
      transport->register_handler(id, [this, node](net::Frame&& f) {
        node->on_frame(std::move(f), queue.now());
      });
    }
  }

  stream::Tuple tuple(std::uint64_t id, std::int64_t key, double ts,
                      stream::StreamSide side, net::NodeId origin) {
    stream::Tuple t;
    t.id = id;
    t.key = key;
    t.timestamp = ts;
    t.side = side;
    t.origin = origin;
    return t;
  }

  SystemConfig config;
  net::EventQueue queue;
  std::unique_ptr<net::SimTransport> transport;
  MetricsCollector metrics;
  std::vector<std::unique_ptr<Node>> built;
};

TEST(Node, LocalLocalPairsNeedNoNetwork) {
  Harness h(PolicyKind::kBase);
  Node& node = *h.built[0];
  node.on_local_tuple(h.tuple(1, 7, 0.0, stream::StreamSide::kR, 0), 0.0);
  h.queue.run_all();
  const auto frames_before = h.transport->stats().total_frames();
  node.on_local_tuple(h.tuple(2, 7, 1.0, stream::StreamSide::kS, 0), 1.0);
  h.queue.run_all();
  EXPECT_EQ(h.metrics.distinct_pairs(), 1u);
  // The S tuple was broadcast (BASE), but no result frame was needed: the
  // pair was local-local.
  EXPECT_EQ(h.transport->stats().frames(net::FrameKind::kResult), 0u);
  EXPECT_GT(h.transport->stats().total_frames(), frames_before);
}

TEST(Node, ForwardedTupleJoinsAndShipsResult) {
  Harness h(PolicyKind::kBase);
  // Node 1 holds a local S tuple (broadcast to node 0); node 0 then ingests
  // a matching R tuple. Two discoveries ship: node 0 finds the pair against
  // its received-S window (ships to node 1), and node 1 finds it when the
  // forwarded R arrives (ships to node 0).
  h.built[1]->on_local_tuple(h.tuple(10, 42, 0.0, stream::StreamSide::kS, 1), 0.0);
  h.queue.run_all();
  h.built[0]->on_local_tuple(h.tuple(11, 42, 1.0, stream::StreamSide::kR, 0), 1.0);
  h.queue.run_all();
  EXPECT_EQ(h.metrics.distinct_pairs(), 1u);
  EXPECT_EQ(h.built[1]->received_tuples(), 1u);
  EXPECT_EQ(h.transport->stats().frames(net::FrameKind::kResult), 2u);
}

TEST(Node, BothOrdersOfArrivalAreCaught) {
  Harness h(PolicyKind::kBase);
  // R arrives (and is forwarded) BEFORE the matching S exists remotely:
  // the pair must be found via the received-R window when S arrives.
  h.built[0]->on_local_tuple(h.tuple(20, 5, 0.0, stream::StreamSide::kR, 0), 0.0);
  h.queue.run_all();
  h.built[1]->on_local_tuple(h.tuple(21, 5, 2.0, stream::StreamSide::kS, 1), 2.0);
  h.queue.run_all();
  EXPECT_EQ(h.metrics.distinct_pairs(), 1u);
}

TEST(Node, WindowBoundaryExcludesDistantPairs) {
  Harness h(PolicyKind::kBase);
  h.built[1]->on_local_tuple(h.tuple(1, 9, 0.0, stream::StreamSide::kS, 1), 0.0);
  h.queue.run_all();
  // half width 5.0; timestamp 6.0 is out of window.
  h.built[0]->on_local_tuple(h.tuple(2, 9, 6.0, stream::StreamSide::kR, 0), 6.0);
  h.queue.run_all();
  EXPECT_EQ(h.metrics.distinct_pairs(), 0u);
}

TEST(Node, DuplicateDiscoveriesDeduplicate) {
  Harness h(PolicyKind::kBase);
  // Matching tuples at both nodes: the pair is discovered at node 0 (its S
  // receives the forwarded R) and at node 1 (its R window vs forwarded S).
  h.built[0]->on_local_tuple(h.tuple(1, 3, 0.0, stream::StreamSide::kR, 0), 0.0);
  h.built[1]->on_local_tuple(h.tuple(2, 3, 0.5, stream::StreamSide::kS, 1), 0.5);
  h.queue.run_all();
  EXPECT_EQ(h.metrics.distinct_pairs(), 1u);
  EXPECT_GE(h.metrics.total_reports(), 2u);
}

TEST(Node, MalformedFrameCountsDecodeFailure) {
  Harness h(PolicyKind::kBase);
  net::Frame junk;
  junk.from = 1;
  junk.to = 0;
  junk.kind = net::FrameKind::kTuple;
  junk.payload = {1, 2, 3};
  h.built[0]->on_frame(std::move(junk), 0.0);
  EXPECT_EQ(h.built[0]->decode_failures(), 1u);
  net::Frame junk_summary;
  junk_summary.kind = net::FrameKind::kSummary;
  junk_summary.payload = {0xff};
  h.built[0]->on_frame(std::move(junk_summary), 0.0);
  EXPECT_EQ(h.built[0]->decode_failures(), 2u);
}

TEST(Node, NonFiniteSummaryIsCountedAndNotApplied) {
  Harness h(PolicyKind::kDftt);
  Node& node = *h.built[0];
  const std::size_t s_side = static_cast<std::size_t>(stream::StreamSide::kS);
  const auto summary_frame = [&](double dc) {
    common::BufferWriter w;
    const std::vector<dsp::CoeffDelta> deltas{{0, dsp::Complex(dc, 0.0)}};
    summary_codec::encode_dft(
        w, stream::StreamSide::kS, h.config.dft_window,
        static_cast<std::uint32_t>(h.config.dft_retained()), deltas);
    SummaryPayload payload;
    payload.block = SummaryBlock{std::move(w).take()};
    net::Frame frame;
    frame.from = 1;
    frame.to = 0;
    frame.kind = net::FrameKind::kSummary;
    frame.payload = payload.encode();
    return frame;
  };

  // Due path: stamped at 0, applied once a local arrival at t = 1 moves
  // the node past the summary's visibility boundary.
  node.on_frame(summary_frame(std::nan("")), 0.0);
  node.on_local_tuple(h.tuple(1, 7, 1.0, stream::StreamSide::kR, 0), 1.0);
  EXPECT_EQ(node.decode_failures(), 1u);
  EXPECT_FALSE(node.substrate().coeff().remote_seeded(1, s_side));

  // Late path: the boundary has already passed, so it applies at once.
  node.on_frame(summary_frame(std::numeric_limits<double>::infinity()), 1.0);
  EXPECT_EQ(node.late_summaries(), 1u);
  EXPECT_EQ(node.decode_failures(), 2u);
  EXPECT_FALSE(node.substrate().coeff().remote_seeded(1, s_side));

  // A finite block on the same path seeds the peer and counts nothing.
  node.on_frame(summary_frame(5000.0 * h.config.dft_window), 1.0);
  EXPECT_EQ(node.decode_failures(), 2u);
  EXPECT_TRUE(node.substrate().coeff().remote_seeded(1, s_side));
}

TEST(Node, ResultFramesAreAcceptedSilently) {
  Harness h(PolicyKind::kBase);
  ResultPayload results;
  results.pairs = {{1, 2}};
  net::Frame frame;
  frame.from = 1;
  frame.to = 0;
  frame.kind = net::FrameKind::kResult;
  frame.payload = results.encode();
  h.built[0]->on_frame(std::move(frame), 0.0);
  EXPECT_EQ(h.built[0]->decode_failures(), 0u);
  // Not re-recorded: discovery already counted at the discoverer.
  EXPECT_EQ(h.metrics.distinct_pairs(), 0u);
}

// Eviction horizons (DESIGN.md §21). Node 0 holds a local R (key 7, t = 0)
// and then ingests one unrelated local tuple per second for `seconds` s.
// Forwards from peers are hand-built frames, delivered whenever the test
// says, so a receiver can lag its peers arbitrarily.
constexpr std::int64_t kProbeKey = 7;

void ingest_old_r_then(Harness& h, int seconds) {
  Node& node = *h.built[0];
  node.on_local_tuple(
      h.tuple(1, kProbeKey, 0.0, stream::StreamSide::kR, 0), 0.0);
  for (int i = 1; i <= seconds; ++i) {
    const double ts = i;
    node.on_local_tuple(h.tuple(100 + static_cast<std::uint64_t>(i), 999, ts,
                                stream::StreamSide::kR, 0),
                        ts);
  }
}

net::Frame forward(const stream::Tuple& tuple, net::NodeId from) {
  TuplePayload payload;
  payload.tuple = tuple;
  net::Frame frame;
  frame.from = from;
  frame.to = 0;
  frame.kind = net::FrameKind::kTuple;
  frame.payload = payload.encode();
  return frame;
}

TEST(Node, DelayedForwardStillJoins) {
  Harness h(PolicyKind::kBase);
  // 300 s pass at node 0 and nothing arrives from node 1, whose clock may
  // still be at 0: node 0 must keep the R its next forward can match.
  ingest_old_r_then(h, 300);
  h.built[0]->on_frame(
      forward(h.tuple(50, kProbeKey, 2.0, stream::StreamSide::kS, 1), 1),
      300.0);
  EXPECT_EQ(h.metrics.distinct_pairs(), 1u);
  EXPECT_EQ(h.built[0]->decode_failures(), 0u);
}

TEST(Node, EvictionForgetsAncientTuples) {
  Harness h(PolicyKind::kBase);
  // Node 1's clock reaches 290 first, so every later forward of its own
  // is at t >= 290, and node 0's evictions past t = 2w drop the R at t = 0.
  h.built[0]->on_frame(
      forward(h.tuple(50, 12345, 290.0, stream::StreamSide::kS, 1), 1), 0.0);
  ingest_old_r_then(h, 300);
  // A forward no honest peer could send now (t = 2 after t = 290) shows
  // the R is gone.
  h.built[0]->on_frame(
      forward(h.tuple(51, kProbeKey, 2.0, stream::StreamSide::kS, 1), 1),
      300.0);
  EXPECT_EQ(h.metrics.distinct_pairs(), 0u);
}

TEST(Node, DeadPeerStopsHoldingEvictionBack) {
  Harness h(PolicyKind::kBase, 3);
  h.built[0]->on_frame(
      forward(h.tuple(50, 12345, 290.0, stream::StreamSide::kS, 1), 1), 0.0);
  ingest_old_r_then(h, 300);  // local tuples 1..301, evictions at 128, 256
  // Peer 2 has sent nothing, so the R is still held for it.
  h.built[0]->on_frame(
      forward(h.tuple(51, kProbeKey, 2.0, stream::StreamSide::kS, 1), 1),
      300.0);
  EXPECT_EQ(h.metrics.distinct_pairs(), 1u);

  h.built[0]->note_peer_dead(2);
  for (int i = 301; i <= 384; ++i) {  // through the eviction at tuple 384
    const double ts = i;
    h.built[0]->on_local_tuple(
        h.tuple(1000 + static_cast<std::uint64_t>(i), 999, ts,
                stream::StreamSide::kR, 0),
        ts);
  }
  h.built[0]->on_frame(
      forward(h.tuple(52, kProbeKey, 2.0, stream::StreamSide::kS, 1), 1),
      384.0);
  EXPECT_EQ(h.metrics.distinct_pairs(), 1u);
}

TEST(Node, FrameFromANonPeerIsDropped) {
  Harness h(PolicyKind::kBase);
  Node& node = *h.built[0];
  node.on_local_tuple(h.tuple(1, kProbeKey, 0.0, stream::StreamSide::kR, 0),
                      0.0);
  // A sender id past the cluster, and one naming the receiver itself.
  for (const net::NodeId from : {net::NodeId{2}, net::NodeId{200},
                                 net::NodeId{0}}) {
    node.on_frame(
        forward(h.tuple(50 + from, kProbeKey, 1.0, stream::StreamSide::kS,
                        from),
                from),
        1.0);
  }
  EXPECT_EQ(node.decode_failures(), 3u);
  EXPECT_EQ(node.received_tuples(), 0u);
  EXPECT_EQ(h.metrics.distinct_pairs(), 0u);
}

TEST(Node, ForwardWhoseOriginIsNotItsSenderIsDropped) {
  Harness h(PolicyKind::kBase, 4);
  Node& node = *h.built[0];
  // Stored, origin 200 would index the 4-entry result-shipping lists when
  // the matching local arrival below finds it.
  node.on_frame(
      forward(h.tuple(50, kProbeKey, 1.0, stream::StreamSide::kS, 200), 1),
      1.0);
  EXPECT_EQ(node.decode_failures(), 1u);
  EXPECT_EQ(node.received_tuples(), 0u);
  node.on_local_tuple(h.tuple(1, kProbeKey, 1.5, stream::StreamSide::kR, 0),
                      1.5);
  EXPECT_EQ(h.metrics.distinct_pairs(), 0u);
}

TEST(Node, PiggybackedSummariesReachPeerPolicies) {
  Harness h(PolicyKind::kDftt);
  // Feed node 0 enough tuples that its piggybacked coefficients seed node
  // 1's view (DFTT's exploration floor guarantees occasional contact).
  double ts = 0.0;
  for (int i = 0; i < 600; ++i) {
    ts += 0.05;
    h.built[0]->on_local_tuple(
        h.tuple(static_cast<std::uint64_t>(i) + 1, 5000 + i % 5, ts,
                stream::StreamSide::kR, 0),
        ts);
    h.queue.run_all();
  }
  EXPECT_GT(h.transport->stats().piggyback_bytes, 0u);
}

// Two hosts that own their collectors, as on the socket backends, over an
// ideal simulated network.
struct HostHarness {
  HostHarness() {
    config.queries.front().policy = PolicyKind::kBase;
    config.nodes = 2;
    config.queries.front().join_half_width_s = 5.0;
    transport = std::make_unique<net::SimTransport>(
        queue, config.nodes, net::WanProfile::ideal(), 1);
    for (net::NodeId id = 0; id < config.nodes; ++id) {
      hosts.push_back(std::make_unique<NodeHost>(config, id, *transport));
      NodeHost* host = hosts.back().get();
      transport->register_handler(id, [this, host](net::Frame&& f) {
        host->deliver(std::move(f), queue.now());
      });
    }
  }

  SystemConfig config;
  net::EventQueue queue;
  std::unique_ptr<net::SimTransport> transport;
  std::vector<std::unique_ptr<NodeHost>> hosts;
};

TEST(NodeHost, PairsDiscoveredMidRunLeavesReportUnchanged) {
  // The daemon heartbeat reads pairs_discovered() while the node runs; the
  // read folds the host's collectors early and must not change its report.
  HostHarness quiet;
  HostHarness polled;
  for (std::uint64_t i = 0; i < 600; ++i) {
    stream::Tuple tuple;
    tuple.id = i + 1;
    tuple.key = static_cast<std::int64_t>(i % 5);
    tuple.timestamp = static_cast<double>(i) * 0.01;
    tuple.side = i % 4 < 2 ? stream::StreamSide::kR : stream::StreamSide::kS;
    tuple.origin = static_cast<net::NodeId>(i % 2);
    for (HostHarness* h : {&quiet, &polled}) {
      h->hosts[tuple.origin]->ingest(tuple, tuple.timestamp);
      h->queue.run_all();
    }
    for (const auto& host : polled.hosts) (void)host->pairs_discovered();
  }
  std::uint64_t discovered = 0;
  for (net::NodeId id = 0; id < 2; ++id) {
    const NodeReport want = quiet.hosts[id]->report({});
    const NodeReport got = polled.hosts[id]->report({});
    ASSERT_EQ(got.queries.size(), 1u);
    ASSERT_EQ(want.queries.size(), 1u);
    EXPECT_EQ(got.queries[0].pairs, want.queries[0].pairs);
    EXPECT_EQ(polled.hosts[id]->pairs_discovered(),
              got.queries[0].pairs.size());
    discovered += got.queries[0].pairs.size();
  }
  // Enough pairs per host that its collector folds on log size too.
  EXPECT_GT(discovered, 4'096u);
}

}  // namespace
}  // namespace dsjoin::core
