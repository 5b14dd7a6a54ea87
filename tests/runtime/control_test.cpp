#include "dsjoin/runtime/control.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <iterator>
#include <string>

#include "dsjoin/core/metrics.hpp"

namespace dsjoin::runtime {
namespace {

TEST(ControlCodec, HelloRoundTrip) {
  HelloMsg msg;
  msg.protocol = kProtocolVersion;
  msg.data_endpoint = {"192.168.7.41", 45123};
  const auto bytes = msg.encode();
  const auto decoded = HelloMsg::decode(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  EXPECT_EQ(decoded.value().protocol, kProtocolVersion);
  EXPECT_EQ(decoded.value().data_endpoint, msg.data_endpoint);
}

TEST(ControlCodec, HelloRejectsTruncation) {
  const auto bytes = HelloMsg{}.encode();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto decoded =
        HelloMsg::decode(std::span(bytes.data(), cut));
    EXPECT_FALSE(decoded.is_ok()) << "prefix of " << cut << " bytes decoded";
  }
}

TEST(ControlCodec, ConfigRoundTripCarriesFullSystemConfig) {
  ConfigMsg msg;
  msg.node_id = 3;
  msg.config.nodes = 7;
  msg.config.seed = 0xfeedULL;
  msg.config.workload = "NWRK";
  msg.config.queries.front().policy = core::PolicyKind::kBloom;
  msg.config.tuples_per_node = 12345;
  msg.config.arrivals_per_second = 33.5;
  msg.config.queries.front().join_half_width_s = 4.25;
  msg.config.queries.front().throttle = 0.75;
  msg.config.dft_window = 1024;
  msg.config.kappa = 128.0;
  msg.peers = {{"10.0.0.1", 1111}, {"10.0.0.2", 2222}, {"10.0.0.3", 3333}};
  msg.heartbeat_period_s = 0.5;
  msg.mesh_timeout_s = 12.0;

  const auto bytes = msg.encode();
  const auto decoded = ConfigMsg::decode(bytes);
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const ConfigMsg& got = decoded.value();
  EXPECT_EQ(got.node_id, 3u);
  EXPECT_EQ(got.config.nodes, 7u);
  EXPECT_EQ(got.config.seed, 0xfeedULL);
  EXPECT_EQ(got.config.workload, "NWRK");
  EXPECT_EQ(got.config.queries.front().policy, core::PolicyKind::kBloom);
  EXPECT_EQ(got.config.tuples_per_node, 12345u);
  EXPECT_DOUBLE_EQ(got.config.arrivals_per_second, 33.5);
  EXPECT_DOUBLE_EQ(got.config.queries.front().join_half_width_s, 4.25);
  EXPECT_DOUBLE_EQ(got.config.queries.front().throttle, 0.75);
  EXPECT_EQ(got.config.dft_window, 1024u);
  EXPECT_DOUBLE_EQ(got.config.kappa, 128.0);
  ASSERT_EQ(got.peers.size(), 3u);
  EXPECT_EQ(got.peers[1], msg.peers[1]);
  EXPECT_DOUBLE_EQ(got.heartbeat_period_s, 0.5);
  EXPECT_DOUBLE_EQ(got.mesh_timeout_s, 12.0);
}

TEST(ControlCodec, ConfigRejectsEveryTruncation) {
  ConfigMsg msg;
  msg.peers = {{"127.0.0.1", 1}, {"127.0.0.1", 2}};
  const auto bytes = msg.encode();
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const auto decoded = ConfigMsg::decode(std::span(bytes.data(), cut));
    EXPECT_FALSE(decoded.is_ok()) << "prefix of " << cut << " bytes decoded";
  }
}

TEST(ControlCodec, ConfigRejectsEmptyQueryList) {
  ConfigMsg msg;
  msg.config.queries.clear();
  const auto decoded = ConfigMsg::decode(msg.encode());
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), common::ErrorCode::kDataLoss);
}

TEST(ControlCodec, ConfigRejectsImplausiblePeerCount) {
  // Corrupt the peer count to a huge value: the decoder must reject it
  // instead of attempting a giant reserve. The count sits right after the
  // serialized config, so re-encode with zero peers and patch the u32.
  ConfigMsg msg;
  auto bytes = msg.encode();
  // Zero peers: the last 20 bytes are count(4) + two f64 knobs(16).
  ASSERT_GE(bytes.size(), 20u);
  const std::size_t count_at = bytes.size() - 20;
  const std::uint32_t huge = 0xffff0000u;
  std::memcpy(bytes.data() + count_at, &huge, sizeof(huge));
  const auto decoded = ConfigMsg::decode(bytes);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), common::ErrorCode::kDataLoss);
}

TEST(ControlCodec, HeartbeatRoundTrip) {
  HeartbeatMsg msg;
  msg.node_id = 9;
  msg.state = DaemonState::kDraining;
  msg.local_tuples = 4096;
  msg.pairs_discovered = 777;
  const auto decoded = HeartbeatMsg::decode(msg.encode());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().node_id, 9u);
  EXPECT_EQ(decoded.value().state, DaemonState::kDraining);
  EXPECT_EQ(decoded.value().local_tuples, 4096u);
  EXPECT_EQ(decoded.value().pairs_discovered, 777u);
}

TEST(ControlCodec, HeartbeatRejectsOutOfRangeState) {
  HeartbeatMsg msg;
  auto bytes = msg.encode();
  bytes[4] = 0x2a;  // state byte follows the u32 node id
  const auto decoded = HeartbeatMsg::decode(bytes);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), common::ErrorCode::kDataLoss);
}

TEST(ControlCodec, MetricsReportRoundTrip) {
  MetricsReportMsg msg;
  msg.node_id = 2;
  msg.local_tuples = 500;
  msg.received_tuples = 321;
  msg.decode_failures = 1;
  net::Frame sample;
  sample.kind = net::FrameKind::kTuple;
  sample.payload.assign(26, 0);
  sample.piggyback_bytes = 12;
  msg.traffic.record(sample);
  msg.queries.emplace_back().pairs = {{1, 2}, {3, 4}, {1000000007, 42}};

  const auto decoded = MetricsReportMsg::decode(msg.encode());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const MetricsReportMsg& got = decoded.value();
  EXPECT_EQ(got.node_id, 2u);
  EXPECT_EQ(got.local_tuples, 500u);
  EXPECT_EQ(got.received_tuples, 321u);
  EXPECT_EQ(got.decode_failures, 1u);
  EXPECT_EQ(got.traffic.frames(net::FrameKind::kTuple), 1u);
  EXPECT_EQ(got.traffic.piggyback_bytes, 12u);
  ASSERT_EQ(got.queries.size(), 1u);
  ASSERT_EQ(got.queries[0].pairs.size(), 3u);
  EXPECT_EQ(got.queries[0].pairs[2], (stream::ResultPair{1000000007, 42}));
}

TEST(ControlCodec, MetricsReportCarriesDrainOutcome) {
  core::NodeReport report;
  report.node_id = 3;
  report.late_summaries = 2;
  report.partial_drains = 1;
  report.predicted_total_mass = 4.5;
  const auto decoded = MetricsReportMsg::decode(
      MetricsReportMsg::from_node_report(report).encode());
  ASSERT_TRUE(decoded.is_ok()) << decoded.status().to_string();
  const core::NodeReport got = decoded.value().to_node_report();
  EXPECT_EQ(got.node_id, 3u);
  EXPECT_EQ(got.late_summaries, 2u);
  EXPECT_EQ(got.partial_drains, 1u);
  EXPECT_DOUBLE_EQ(got.predicted_total_mass, 4.5);
}

TEST(ControlCodec, MetricsReportEncodeIsInsertionOrderIndependent) {
  // The wire report must be byte-identical no matter what order a node
  // discovered its pairs in: MetricsCollector::pairs() is pinned to sort
  // ascending by (r_id, s_id), and from_node_report carries that order
  // onto the wire unchanged. This is what makes coordinator-side metrics
  // (and the multiprocess golden runs) reproducible across schedules.
  const std::vector<stream::ResultPair> forward{{1, 9}, {2, 4}, {2, 7}, {5, 1}};
  core::MetricsCollector a;
  core::MetricsCollector b;
  a.set_node_count(1);
  b.set_node_count(1);
  for (const auto& pair : forward) a.record_pair(pair, 0, 0.0);
  for (auto it = forward.rbegin(); it != forward.rend(); ++it) {
    b.record_pair(*it, 0, 0.0);
  }
  EXPECT_EQ(a.pairs(), b.pairs());
  EXPECT_EQ(a.pairs(), forward);  // already in (r_id, s_id) order

  core::NodeReport report_a;
  report_a.queries.emplace_back().pairs = a.pairs();
  core::NodeReport report_b;
  report_b.queries.emplace_back().pairs = b.pairs();
  const auto bytes_a = MetricsReportMsg::from_node_report(report_a).encode();
  const auto bytes_b = MetricsReportMsg::from_node_report(report_b).encode();
  EXPECT_EQ(bytes_a, bytes_b);
}

TEST(ControlCodec, MetricsReportRejectsPairCountMismatch) {
  MetricsReportMsg msg;
  msg.queries.emplace_back().pairs = {{1, 2}, {3, 4}};
  auto bytes = msg.encode();
  // The pair count is the u64 right before the 2 * 16 pair bytes.
  const std::size_t count_at = bytes.size() - 2 * 16 - 8;
  const std::uint64_t lying = 3;
  std::memcpy(bytes.data() + count_at, &lying, sizeof(lying));
  const auto decoded = MetricsReportMsg::decode(bytes);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), common::ErrorCode::kDataLoss);

  // Truncating mid-pair must fail the same way, not return fewer pairs.
  auto honest = msg.encode();
  honest.resize(honest.size() - 7);
  EXPECT_FALSE(MetricsReportMsg::decode(honest).is_ok());
}

// The offset of the one query section's pair count in `bytes`: the u64
// right after the section's predicted_total_mass, found by its value.
std::size_t pair_count_offset(const std::vector<std::uint8_t>& bytes,
                              double total_mass) {
  std::uint8_t pattern[8];
  std::memcpy(pattern, &total_mass, sizeof(pattern));
  const auto it = std::search(bytes.begin(), bytes.end(), std::begin(pattern),
                              std::end(pattern));
  EXPECT_NE(it, bytes.end());
  return static_cast<std::size_t>(it - bytes.begin()) + sizeof(pattern);
}

TEST(ControlCodec, MetricsReportRejectsOverflowingPairCount) {
  // 2^60 pairs * 16 bytes wraps to 0 in u64: a count checked as a product
  // passes, and reserving 2^60 pairs throws out of the decoder.
  MetricsReportMsg msg;
  core::QueryNodeReport& section = msg.queries.emplace_back();
  section.predicted_total_mass = 12345.625;
  section.pairs = {{1, 2}};
  auto bytes = msg.encode();
  const std::size_t count_at = pair_count_offset(bytes, 12345.625);
  const std::uint64_t hostile = std::uint64_t{1} << 60;
  std::memcpy(bytes.data() + count_at, &hostile, sizeof(hostile));
  const auto decoded = MetricsReportMsg::decode(bytes);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), common::ErrorCode::kDataLoss);
}

TEST(ControlCodec, MetricsReportRejectsTrailingBytes) {
  // The report ends right after its last query section.
  MetricsReportMsg msg;
  msg.queries.emplace_back().pairs = {{1, 2}};
  auto bytes = msg.encode();
  ASSERT_TRUE(MetricsReportMsg::decode(bytes).is_ok());
  bytes.insert(bytes.end(), 8, 0);  // e.g. an empty pre-v7 node pair list
  const auto decoded = MetricsReportMsg::decode(bytes);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), common::ErrorCode::kDataLoss);
}

TEST(ControlCodec, DrainRejectsOverflowingCount) {
  // 2^30 dead nodes * 4 bytes wraps to 0 in u32, which equals the empty
  // body: the count check must reject it before anything is reserved or
  // read.
  common::BufferWriter out(4);
  out.write_u32(std::uint32_t{1} << 30);
  const auto decoded = DrainMsg::decode(std::move(out).take());
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), common::ErrorCode::kDataLoss);
  EXPECT_NE(decoded.status().message().find("count"), std::string::npos)
      << decoded.status().message();
}

TEST(ControlCodec, DrainRoundTripAndValidation) {
  DrainMsg msg;
  msg.dead_nodes = {1, 5, 9};
  const auto decoded = DrainMsg::decode(msg.encode());
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().dead_nodes, (std::vector<net::NodeId>{1, 5, 9}));

  const auto empty = DrainMsg::decode(DrainMsg{}.encode());
  ASSERT_TRUE(empty.is_ok());
  EXPECT_TRUE(empty.value().dead_nodes.empty());

  auto bytes = msg.encode();
  bytes.push_back(0);  // trailing garbage breaks count * 4 == remaining
  EXPECT_FALSE(DrainMsg::decode(bytes).is_ok());
}

TEST(ControlCodec, EndpointHelpersRoundTrip) {
  common::BufferWriter out(32);
  serialize_endpoint({"host.example", 65535}, out);
  const auto bytes = std::move(out).take();
  common::BufferReader in(bytes);
  const auto decoded = deserialize_endpoint(in);
  ASSERT_TRUE(decoded.is_ok());
  EXPECT_EQ(decoded.value().host, "host.example");
  EXPECT_EQ(decoded.value().port, 65535);
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(ControlCodec, ToStringCoversAllValues) {
  EXPECT_STREQ(to_string(ControlType::kHello), "HELLO");
  EXPECT_STREQ(to_string(ControlType::kBye), "BYE");
  EXPECT_STREQ(to_string(DaemonState::kJoining), "JOINING");
  EXPECT_STREQ(to_string(DaemonState::kDraining), "DRAINING");
}

}  // namespace
}  // namespace dsjoin::runtime
