// Cross-cutting property sweeps over the whole system and the flow
// allocator: invariants that must hold for every policy, workload and
// random seed, not just the tuned defaults.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/core/system.hpp"

namespace dsjoin::core {
namespace {

// ---------------------------------------------------------------------------
// allocate_flow_probabilities invariants under random inputs.

class AllocatorPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AllocatorPropertyTest, InvariantsHoldForRandomInputs) {
  common::Xoshiro256 rng(GetParam());
  // One output vector for every trial: stale entries of an earlier, larger
  // or saturated trial must not leak into the next.
  std::vector<double> probs;
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng.next_below(24);
    std::vector<double> scores(n);
    for (auto& s : scores) {
      s = rng.next_bool(0.3) ? 0.0 : rng.next_double_in(0.0, 1000.0);
    }
    const double budget = rng.next_double_in(0.0, static_cast<double>(n) + 2.0);
    const double floor = rng.next_double_in(0.0, 0.3);
    allocate_flow_probabilities(scores, budget, floor, probs);
    ASSERT_EQ(probs.size(), n);
    double total = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      // Range invariant.
      ASSERT_GE(probs[j], 0.0);
      ASSERT_LE(probs[j], 1.0);
      // Floor invariant (floor itself is clamped to <= 1).
      ASSERT_GE(probs[j], std::min(floor, 1.0) - 1e-12);
      total += probs[j];
    }
    // The allocation never exceeds the (clamped) budget by more than the
    // floor mass it must guarantee.
    const double clamped_budget = std::min(budget, static_cast<double>(n));
    ASSERT_LE(total, std::max(clamped_budget, floor * static_cast<double>(n)) + 1e-9);
    // Monotone in score: a strictly larger score never gets a smaller p.
    for (std::size_t a = 0; a < n; ++a) {
      for (std::size_t b = 0; b < n; ++b) {
        if (scores[a] > scores[b]) {
          ASSERT_GE(probs[a], probs[b] - 1e-9);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AllocatorPropertyTest,
                         ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Whole-system invariants for every (policy, workload) combination.

using Combo = std::tuple<PolicyKind, const char*>;

class SystemPropertyTest : public ::testing::TestWithParam<Combo> {};

TEST_P(SystemPropertyTest, InvariantsHoldOnSmallRuns) {
  const auto [kind, workload] = GetParam();
  SystemConfig config;
  config.queries.front().policy = kind;
  config.workload = workload;
  config.nodes = 5;
  config.tuples_per_node = 350;
  config.seed = 1234;
  if (std::string(workload) == "UNI") config.domain = 1 << 12;

  const auto result = run_experiment(config);

  // Soundness: never report more than the oracle, never decode garbage.
  EXPECT_LE(result.reported_pairs, result.exact_pairs);
  EXPECT_EQ(result.decode_failures, 0u);
  EXPECT_GE(result.epsilon, 0.0);
  EXPECT_LE(result.epsilon, 1.0);
  // Liveness: the run ingested everything and made progress.
  EXPECT_EQ(result.total_arrivals, 5u * 2u * 350u);
  EXPECT_GT(result.makespan_s, 0.0);
  // Traffic sanity: tuple frames bounded by broadcast.
  EXPECT_LE(result.traffic.frames(net::FrameKind::kTuple),
            result.total_arrivals * (config.nodes - 1));
  // Determinism: identical config, identical outcome.
  const auto again = run_experiment(config);
  EXPECT_EQ(again.reported_pairs, result.reported_pairs);
  EXPECT_EQ(again.traffic.total_frames(), result.traffic.total_frames());
}

INSTANTIATE_TEST_SUITE_P(
    All, SystemPropertyTest,
    ::testing::Combine(::testing::Values(PolicyKind::kBase, PolicyKind::kRoundRobin,
                                         PolicyKind::kDft, PolicyKind::kDftt,
                                         PolicyKind::kBloom, PolicyKind::kSketch,
                                         PolicyKind::kSpectrum),
                       ::testing::Values("UNI", "ZIPF", "FIN", "NWRK")),
    [](const ::testing::TestParamInfo<Combo>& info) {
      return std::string(to_string(std::get<0>(info.param))) + "_" +
             std::get<1>(info.param);
    });

// ---------------------------------------------------------------------------
// The throttle knob's budget actually bounds traffic for the scored
// policies: frames grow monotonically (within noise) in the throttle.

class ThrottlePropertyTest : public ::testing::TestWithParam<PolicyKind> {};

TEST_P(ThrottlePropertyTest, TrafficGrowsWithThrottle) {
  SystemConfig config;
  config.queries.front().policy = GetParam();
  config.nodes = 5;
  config.tuples_per_node = 400;
  config.seed = 77;
  std::vector<std::uint64_t> frames;
  for (double throttle : {0.0, 0.5, 1.0}) {
    config.queries.front().throttle = throttle;
    frames.push_back(
        run_experiment(config).traffic.frames(net::FrameKind::kTuple));
  }
  EXPECT_LE(frames[0], frames[1] + frames[1] / 10);
  EXPECT_LE(frames[1], frames[2] + frames[2] / 10);
  // Throttle 1 approaches broadcast for the scored policies.
  EXPECT_GT(frames[2], frames[0]);
}

INSTANTIATE_TEST_SUITE_P(Policies, ThrottlePropertyTest,
                         ::testing::Values(PolicyKind::kDft, PolicyKind::kDftt,
                                           PolicyKind::kBloom, PolicyKind::kSketch,
                                           PolicyKind::kSpectrum));

}  // namespace
}  // namespace dsjoin::core
