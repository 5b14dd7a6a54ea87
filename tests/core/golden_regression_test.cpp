// Golden regression pins: N=4, seed 42, ZIPF, 400 tuples/node/side, plus
// evicting-window pins for the count-window policies (800 tuples, W = 64)
// and one multi-query pin (the perfbench sim-mq8 query set at that scale).
//
// The simulator is deterministic end to end (fixed-seed xoshiro streams,
// virtual time, -ffp-contract=off builds), so the headline figure metrics —
// messages per result tuple and epsilon — are pinned exactly per policy.
// A change here means the experiment pipeline changed behaviour: either a
// bug, or an intentional change that must update these numbers *and* be
// called out in review. Integer counts are compared with EXPECT_EQ; the two
// doubles are ratios of those integers, so EXPECT_DOUBLE_EQ is exact too.
#include <gtest/gtest.h>

#include "dsjoin/core/system.hpp"
#include "dsjoin/net/frame.hpp"

namespace dsjoin::core {
namespace {

struct Golden {
  PolicyKind policy;
  std::uint64_t exact_pairs;
  std::uint64_t reported_pairs;
  std::uint64_t total_frames;
  std::uint64_t summary_frames;   ///< dedicated kSummary frames sent
  std::uint64_t piggyback_bytes;  ///< summary bytes riding on tuple frames
  double epsilon;
  double messages_per_result;
};

/// Predicted-epsilon bound terms. Only SMPL has an error model; every other
/// policy reports 0 for both. They sit outside Golden because gtest names
/// each case after the bytes of its Golden row, so a wider row would rename
/// every case.
struct GoldenBound {
  PolicyKind policy;
  double predicted_missed_mass;
  double predicted_total_mass;
};

template <std::size_t N>
GoldenBound bound_for(PolicyKind kind, const GoldenBound (&table)[N]) {
  for (const auto& row : table) {
    if (row.policy == kind) return row;
  }
  return {kind, 0.0, 0.0};
}

void expect_bound(const ExperimentResult& result, const GoldenBound& want) {
  EXPECT_DOUBLE_EQ(result.predicted_missed_mass, want.predicted_missed_mass);
  EXPECT_DOUBLE_EQ(result.predicted_total_mass, want.predicted_total_mass);
}

// Regenerate by running this config per policy and printing with %.17g.
// The summary columns pin the coefficient-exchange plane itself: the DFT
// family piggybacks coefficients on tuple frames (zero dedicated summary
// frames, nonzero piggyback bytes) while BLOOM/SKCH/SPEC ship epoch blocks
// as dedicated frames — a regression in either channel shows up here even
// when pairs and epsilon happen to survive it.
constexpr Golden kGoldens[] = {
    {PolicyKind::kBase, 6622ull, 6622ull, 13330ull, 0ull, 0ull, 0.0,
     2.0129870129870131},
    {PolicyKind::kRoundRobin, 6622ull, 6182ull, 9055ull, 0ull, 0ull,
     0.066445182724252483, 1.464736331284374},
    {PolicyKind::kDft, 6622ull, 6129ull, 7575ull, 0ull, 12880ull,
     0.07444880700694656, 1.2359275575134605},
    {PolicyKind::kDftt, 6622ull, 6234ull, 6083ull, 0ull, 13064ull,
     0.058592570220477147, 0.97577799165864609},
    {PolicyKind::kBloom, 6622ull, 6059ull, 5933ull, 36ull, 0ull,
     0.085019631531259465, 0.97920448918963521},
    {PolicyKind::kSketch, 6622ull, 5975ull, 7664ull, 36ull, 0ull,
     0.097704620960434863, 1.2826778242677823},
    {PolicyKind::kSpectrum, 6622ull, 6230ull, 8344ull, 36ull, 0ull,
     0.059196617336152224, 1.3393258426966292},
    {PolicyKind::kSample, 6622ull, 6144ull, 6559ull, 36ull, 0ull,
     0.072183630323165215, 1.0675455729166667},
};

constexpr GoldenBound kBoundGoldens[] = {
    {PolicyKind::kSample, 346134.60654329445, 248620.0},
};

SystemConfig golden_config(PolicyKind kind) {
  SystemConfig config;
  config.queries.front().policy = kind;
  config.workload = "ZIPF";
  config.nodes = 4;
  config.tuples_per_node = 400;
  config.seed = 42;
  return config;
}

class GoldenRegression : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenRegression, PinnedMetricsUnchanged) {
  const Golden& golden = GetParam();
  const auto result = run_experiment(golden_config(golden.policy));
  EXPECT_EQ(result.exact_pairs, golden.exact_pairs);
  EXPECT_EQ(result.reported_pairs, golden.reported_pairs);
  EXPECT_EQ(result.traffic.total_frames(), golden.total_frames);
  EXPECT_EQ(result.traffic.frames(net::FrameKind::kSummary),
            golden.summary_frames);
  EXPECT_EQ(result.traffic.piggyback_bytes, golden.piggyback_bytes);
  EXPECT_DOUBLE_EQ(result.epsilon, golden.epsilon);
  EXPECT_DOUBLE_EQ(result.messages_per_result, golden.messages_per_result);
  expect_bound(result, bound_for(golden.policy, kBoundGoldens));
  // Virtual-time stamping buffers early summaries instead of dropping any:
  // in the simulator nothing is ever late.
  EXPECT_EQ(result.late_summaries, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, GoldenRegression,
                         ::testing::ValuesIn(kGoldens),
                         [](const auto& info) {
                           return std::string(to_string(info.param.policy));
                         });

// Pins with evicting summary windows: W = 64 against 800 tuples per node
// and side, so every BLOOM / SKCH / SPEC count window fills and evicts,
// and the summaries broadcast every 64 tuples. The rows above never evict
// (400 tuples against W = 2048), and the parity suites compare backends
// with each other, so only these rows catch a changed eviction order.
constexpr Golden kEvictingGoldens[] = {
    {PolicyKind::kBloom, 18460ull, 15889ull, 7647ull, 300ull, 0ull,
     0.13927410617551461, 0.48127635471080621},
    {PolicyKind::kSketch, 18460ull, 16699ull, 16406ull, 300ull, 0ull,
     0.095395449620801709, 0.98245403916402185},
    {PolicyKind::kSpectrum, 18460ull, 17388ull, 18901ull, 300ull, 0ull,
     0.058071505958829928, 1.0870140326662066},
    {PolicyKind::kSample, 18460ull, 17740ull, 14007ull, 300ull, 0ull,
     0.039003250270855938, 0.78957158962795937},
};

constexpr GoldenBound kEvictingBoundGoldens[] = {
    {PolicyKind::kSample, 336074.15179804596, 293047.0},
};

SystemConfig evicting_config(PolicyKind kind) {
  SystemConfig config = golden_config(kind);
  config.tuples_per_node = 800;
  config.dft_window = 64;
  config.kappa = 8.0;
  config.summary_epoch_tuples = 64;
  return config;
}

class GoldenEvictingWindows : public ::testing::TestWithParam<Golden> {};

TEST_P(GoldenEvictingWindows, PinnedMetricsUnchanged) {
  const Golden& golden = GetParam();
  const auto result = run_experiment(evicting_config(golden.policy));
  EXPECT_EQ(result.exact_pairs, golden.exact_pairs);
  EXPECT_EQ(result.reported_pairs, golden.reported_pairs);
  EXPECT_EQ(result.traffic.total_frames(), golden.total_frames);
  EXPECT_EQ(result.traffic.frames(net::FrameKind::kSummary),
            golden.summary_frames);
  EXPECT_EQ(result.traffic.piggyback_bytes, golden.piggyback_bytes);
  EXPECT_DOUBLE_EQ(result.epsilon, golden.epsilon);
  EXPECT_DOUBLE_EQ(result.messages_per_result, golden.messages_per_result);
  expect_bound(result, bound_for(golden.policy, kEvictingBoundGoldens));
  EXPECT_EQ(result.late_summaries, 0u);
}

INSTANTIATE_TEST_SUITE_P(SummaryPolicies, GoldenEvictingWindows,
                         ::testing::ValuesIn(kEvictingGoldens),
                         [](const auto& info) {
                           return std::string(to_string(info.param.policy));
                         });

// Pins one multi-query run: perfbench's sim-mq8 query set (two queries each
// of DFTT, SMPL, BLOOM and SKCH sharing four summary engines) on the golden
// config. The multi-query suites compare backends and solo runs with each
// other, so a change every side shares passes them; only this row sees it.
struct GoldenQuery {
  std::uint64_t exact_pairs;
  std::uint64_t reported_pairs;
  double epsilon;
};

constexpr GoldenQuery kMultiQueryGoldens[] = {
    {4188ull, 3851ull, 0.080468003820439393},
    {5269ull, 4770ull, 0.094704877585879643},
    {5917ull, 5391ull, 0.088896400202805426},
    {6295ull, 5789ull, 0.080381254964257298},
    {4188ull, 4087ull, 0.024116523400190992},
    {5269ull, 4672ull, 0.11330423230214459},
    {5917ull, 5249ull, 0.11289504816630047},
    {6295ull, 5662ull, 0.1005559968228753},
};

TEST(GoldenMultiQuery, PinnedMetricsUnchanged) {
  SystemConfig config = golden_config(PolicyKind::kDftt);
  auto queries = parse_queries(
      "DFTT:0.3:5;SMPL:0.4:7.5;BLOOM:0.5:10;SKCH:0.6:12.5;"
      "DFTT:0.7:5;SMPL:0.3:7.5;BLOOM:0.4:10;SKCH:0.5:12.5",
      config);
  ASSERT_TRUE(queries.is_ok());
  config.queries = std::move(queries).value();
  const auto result = run_experiment(config);
  EXPECT_EQ(result.traffic.total_frames(), 24061u);
  EXPECT_EQ(result.traffic.frames(net::FrameKind::kSummary), 108u);
  EXPECT_EQ(result.traffic.piggyback_bytes, 14256u);
  EXPECT_EQ(result.late_summaries, 0u);
  ASSERT_EQ(result.per_query.size(), std::size(kMultiQueryGoldens));
  for (std::size_t q = 0; q < result.per_query.size(); ++q) {
    const auto& got = result.per_query[q];
    const auto& want = kMultiQueryGoldens[q];
    EXPECT_EQ(got.exact_pairs, want.exact_pairs) << "query " << q;
    EXPECT_EQ(got.reported_pairs, want.reported_pairs) << "query " << q;
    EXPECT_DOUBLE_EQ(got.epsilon, want.epsilon) << "query " << q;
  }
}

}  // namespace
}  // namespace dsjoin::core
