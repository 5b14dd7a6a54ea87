// core::validate_config — the one validity gate every CLI site, the
// CONFIG decoder and the engine entry points share. The ranges asserted
// here used to be duplicated per flag in bench_util.hpp and dsjoin_coord;
// this test pins the gate so a loosened or dropped check is caught once,
// centrally.
#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "dsjoin/core/config.hpp"

namespace dsjoin::core {
namespace {

SystemConfig valid_config() {
  SystemConfig config;  // defaults are a valid run
  return config;
}

TEST(ValidateConfig, DefaultsAreValid) {
  EXPECT_TRUE(validate_config(valid_config()).is_ok());
}

TEST(ValidateConfig, RejectsSingleNodeCluster) {
  auto config = valid_config();
  config.nodes = 1;
  EXPECT_FALSE(validate_config(config).is_ok());
}

TEST(ValidateConfig, RejectsMoreNodesThanTheOriginByteAddresses) {
  auto config = valid_config();
  config.nodes = kMaxNodes;
  EXPECT_TRUE(validate_config(config).is_ok());
  config.nodes = kMaxNodes + 1;
  const auto status = validate_config(config);
  ASSERT_FALSE(status.is_ok());
  EXPECT_NE(status.message().find("<= 256"), std::string::npos)
      << status.message();
  // What a negative --nodes becomes once cast to u32.
  config.nodes = static_cast<std::uint32_t>(-1);
  EXPECT_FALSE(validate_config(config).is_ok());

  // The CONFIG decoder shares the gate.
  config.nodes = kMaxNodes + 1;
  common::BufferWriter out;
  serialize_config(config, out);
  const auto bytes = std::move(out).take();
  common::BufferReader in(bytes);
  const auto decoded = deserialize_config(in);
  ASSERT_FALSE(decoded.is_ok());
  EXPECT_EQ(decoded.status().code(), common::ErrorCode::kDataLoss);
}

TEST(ValidateConfig, RejectsCoalesceFramesOutOfRange) {
  auto config = valid_config();
  config.coalesce_frames = 0;
  EXPECT_FALSE(validate_config(config).is_ok());
  config.coalesce_frames = 0x10000;
  EXPECT_FALSE(validate_config(config).is_ok());
  config.coalesce_frames = 0xFFFF;
  EXPECT_TRUE(validate_config(config).is_ok());
}

TEST(ValidateConfig, RejectsCoalesceBytesOutOfRange) {
  auto config = valid_config();
  config.coalesce_bytes = 0;
  EXPECT_FALSE(validate_config(config).is_ok());
  config.coalesce_bytes = (1u << 24) + 1;
  EXPECT_FALSE(validate_config(config).is_ok());
}

TEST(ValidateConfig, RejectsBadSummarySyncEpoch) {
  auto config = valid_config();
  config.summary_sync_epoch_s = 0.0;
  EXPECT_FALSE(validate_config(config).is_ok());
  config.summary_sync_epoch_s = 3601.0;
  EXPECT_FALSE(validate_config(config).is_ok());
  config.summary_sync_epoch_s = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(validate_config(config).is_ok());
  config.summary_sync_epoch_s = 0.25;
  EXPECT_TRUE(validate_config(config).is_ok());
}

TEST(ValidateConfig, RejectsUnsupportedQuantWidth) {
  auto config = valid_config();
  for (std::uint32_t bits : {1u, 7u, 9u, 32u}) {
    config.summary_quant_bits = bits;
    EXPECT_FALSE(validate_config(config).is_ok()) << bits;
  }
  for (std::uint32_t bits : {0u, 8u, 16u}) {
    config.summary_quant_bits = bits;
    EXPECT_TRUE(validate_config(config).is_ok()) << bits;
  }
}

TEST(ValidateConfig, RejectsSampleKnobsOutOfRange) {
  auto config = valid_config();
  config.sample_capacity = (1u << 15) + 1;
  EXPECT_FALSE(validate_config(config).is_ok());
  config.sample_capacity = 0;
  config.sample_strata = 0;
  EXPECT_FALSE(validate_config(config).is_ok());
  config.sample_strata = 4097;
  EXPECT_FALSE(validate_config(config).is_ok());
}

TEST(ValidateConfig, RejectsThrottleAndWidthOutOfRange) {
  auto config = valid_config();
  config.queries.front().throttle = -0.1;
  EXPECT_FALSE(validate_config(config).is_ok());
  config.queries.front().throttle = 1.1;
  EXPECT_FALSE(validate_config(config).is_ok());
  config.queries.front().throttle = 0.5;
  config.queries.front().join_half_width_s = 0.0;
  EXPECT_FALSE(validate_config(config).is_ok());
  config.queries.front().join_half_width_s =
      std::numeric_limits<double>::infinity();
  EXPECT_FALSE(validate_config(config).is_ok());
}

TEST(ValidateConfig, RejectsNonPositiveOrNonFiniteArrivalRate) {
  // The schedule draws exponential gaps at this rate: 0 puts every arrival
  // at t = inf, a negative rate runs time backwards, NaN poisons it all.
  auto config = valid_config();
  for (double rate : {0.0, -5.0, std::numeric_limits<double>::quiet_NaN(),
                      std::numeric_limits<double>::infinity()}) {
    config.arrivals_per_second = rate;
    EXPECT_FALSE(validate_config(config).is_ok()) << rate;
  }
  config.arrivals_per_second = 1e-3;
  EXPECT_TRUE(validate_config(config).is_ok());
}

TEST(ValidateConfig, RejectsMembershipToleranceOutOfRange) {
  auto config = valid_config();
  config.membership_tolerance = -1;
  EXPECT_FALSE(validate_config(config).is_ok());
  config.membership_tolerance = (std::int64_t{1} << 31) + 1;
  EXPECT_FALSE(validate_config(config).is_ok());
  config.membership_tolerance = std::int64_t{1} << 31;
  EXPECT_TRUE(validate_config(config).is_ok());
  config.membership_tolerance = 0;
  EXPECT_TRUE(validate_config(config).is_ok());
}

TEST(ValidateConfig, RejectsDegenerateDftWindow) {
  auto config = valid_config();
  config.dft_window = 1;
  EXPECT_FALSE(validate_config(config).is_ok());
  config.dft_window = 0;
  EXPECT_FALSE(validate_config(config).is_ok());
  config.kappa = 2.0;
  config.dft_window = 2;
  EXPECT_TRUE(validate_config(config).is_ok());
}

TEST(ValidateConfig, RejectsNonPositiveOrNonFiniteKappa) {
  auto config = valid_config();
  for (double kappa : {0.0, -4.0, std::numeric_limits<double>::quiet_NaN(),
                       std::numeric_limits<double>::infinity()}) {
    config.kappa = kappa;
    EXPECT_FALSE(validate_config(config).is_ok()) << kappa;
  }
  config.kappa = 1e-300;  // would overflow W / kappa's integer truncation
  EXPECT_FALSE(validate_config(config).is_ok());
  config.kappa = 2.0;  // the smallest kappa fig10a sweeps
  EXPECT_TRUE(validate_config(config).is_ok());
}

TEST(ValidateConfig, RejectsMoreCoefficientsThanHalfSpectrum) {
  auto config = valid_config();
  config.dft_window = 2048;
  config.kappa = 1.0;  // K = 2048 > W/2 + 1
  EXPECT_FALSE(validate_config(config).is_ok());
  config.kappa = 1.996;  // K = 1026
  EXPECT_FALSE(validate_config(config).is_ok());
  config.kappa = 1.997;  // K = 1025 = W/2 + 1
  EXPECT_EQ(config.dft_retained(), 1025u);
  EXPECT_TRUE(validate_config(config).is_ok());
}

TEST(ValidateConfig, RejectsEmptyQueryList) {
  auto config = valid_config();
  ASSERT_EQ(config.queries.size(), 1u);  // the default: one query
  config.queries.clear();
  EXPECT_FALSE(validate_config(config).is_ok());
}

TEST(ValidateConfig, RejectsTooManyQueries) {
  auto config = valid_config();
  config.queries.clear();
  for (std::uint32_t i = 0; i <= kMaxQueries; ++i) {
    QuerySpec spec;
    spec.id = i;
    config.queries.push_back(spec);
  }
  EXPECT_FALSE(validate_config(config).is_ok());
  config.queries.pop_back();
  EXPECT_TRUE(validate_config(config).is_ok());
}

TEST(ValidateConfig, RejectsDuplicateQueryIds) {
  auto config = valid_config();
  QuerySpec spec;
  spec.id = 3;
  config.queries.push_back(spec);
  config.queries.push_back(spec);
  EXPECT_FALSE(validate_config(config).is_ok());
  config.queries.back().id = 4;
  EXPECT_TRUE(validate_config(config).is_ok());
}

TEST(ValidateConfig, RejectsPerQueryRangeViolations) {
  auto config = valid_config();
  config.queries.clear();
  QuerySpec spec;
  spec.id = 0;
  spec.throttle = 1.5;
  config.queries.push_back(spec);
  EXPECT_FALSE(validate_config(config).is_ok());
  config.queries.back().throttle = 0.5;
  config.queries.back().join_half_width_s = -1.0;
  EXPECT_FALSE(validate_config(config).is_ok());
  config.queries.back().join_half_width_s = 2.0;
  EXPECT_TRUE(validate_config(config).is_ok());
}

TEST(ValidateConfig, ParseQueriesRoundTripsThroughGate) {
  auto config = valid_config();
  const auto parsed = parse_queries("DFTT:0.5:10;SMPL:0.7:4;BASE", config);
  ASSERT_TRUE(bool(parsed)) << parsed.status().message();
  config.queries = parsed.value();
  ASSERT_EQ(config.queries.size(), 3u);
  EXPECT_EQ(config.queries[0].policy, PolicyKind::kDftt);
  EXPECT_EQ(config.queries[1].policy, PolicyKind::kSample);
  EXPECT_EQ(config.queries[2].policy, PolicyKind::kBase);
  EXPECT_DOUBLE_EQ(config.queries[1].join_half_width_s, 4.0);
  EXPECT_TRUE(validate_config(config).is_ok());
  EXPECT_FALSE(bool(parse_queries("NOPE:0.5", config)));
  EXPECT_FALSE(bool(parse_queries("DFTT:abc", config)));
  // A parseable-but-nonsense value flows through to the gate.
  const auto nan_spec = parse_queries("DFTT:nan", valid_config());
  ASSERT_TRUE(bool(nan_spec));
  auto nan_config = valid_config();
  nan_config.queries = nan_spec.value();
  EXPECT_FALSE(validate_config(nan_config).is_ok());
}

}  // namespace
}  // namespace dsjoin::core
