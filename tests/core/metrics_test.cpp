#include "dsjoin/core/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <unordered_set>
#include <vector>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/core/experiment.hpp"

namespace dsjoin::core {
namespace {

TEST(MetricsCollector, DeduplicatesPairs) {
  MetricsCollector metrics;
  metrics.set_node_count(3);
  metrics.record_pair({1, 2}, 0, 1.0);
  metrics.record_pair({1, 2}, 1, 2.0);  // duplicate discovery at another node
  metrics.record_pair({2, 1}, 1, 3.0);  // distinct (order matters: R vs S id)
  EXPECT_EQ(metrics.distinct_pairs(), 2u);
  EXPECT_EQ(metrics.total_reports(), 3u);
}

TEST(MetricsCollector, CreditsFirstDiscoverer) {
  MetricsCollector metrics;
  metrics.set_node_count(2);
  metrics.record_pair({1, 2}, 1, 1.0);
  metrics.record_pair({1, 2}, 0, 2.0);
  metrics.record_pair({3, 4}, 0, 3.0);
  EXPECT_EQ(metrics.per_node_discoveries()[0], 1u);
  EXPECT_EQ(metrics.per_node_discoveries()[1], 1u);
}

TEST(MetricsCollector, TracksLastReportTime) {
  MetricsCollector metrics;
  metrics.set_node_count(1);
  EXPECT_DOUBLE_EQ(metrics.last_report_time(), 0.0);
  metrics.record_pair({1, 1}, 0, 5.0);
  metrics.record_pair({2, 2}, 0, 3.0);  // earlier report does not move it back
  EXPECT_DOUBLE_EQ(metrics.last_report_time(), 5.0);
}

TEST(MetricsCollector, OutOfRangeDiscovererIsSafe) {
  MetricsCollector metrics;
  metrics.set_node_count(1);
  metrics.record_pair({9, 9}, 57, 1.0);  // no per-node slot; still counted
  EXPECT_EQ(metrics.distinct_pairs(), 1u);
}

// The hash-set collector that sorted runs replaced, kept as the reference
// the collector's observables must match report for report.
class HashSetCollector {
 public:
  explicit HashSetCollector(std::size_t nodes) : per_node_(nodes, 0) {}

  void record_pair(const stream::ResultPair& pair, net::NodeId discoverer,
                   double now) {
    ++total_reports_;
    if (now > last_report_time_) last_report_time_ = now;
    if (reported_.insert(pair).second && discoverer < per_node_.size()) {
      ++per_node_[discoverer];
    }
  }

  std::uint64_t distinct_pairs() const { return reported_.size(); }
  std::vector<stream::ResultPair> pairs() const {
    std::vector<stream::ResultPair> snapshot(reported_.begin(),
                                             reported_.end());
    std::sort(snapshot.begin(), snapshot.end(),
              [](const stream::ResultPair& a, const stream::ResultPair& b) {
                if (a.r_id != b.r_id) return a.r_id < b.r_id;
                return a.s_id < b.s_id;
              });
    return snapshot;
  }
  std::uint64_t total_reports() const { return total_reports_; }
  double last_report_time() const { return last_report_time_; }
  const std::vector<std::uint64_t>& per_node_discoveries() const {
    return per_node_;
  }

 private:
  std::unordered_set<stream::ResultPair, stream::ResultPairHash> reported_;
  std::vector<std::uint64_t> per_node_;
  std::uint64_t total_reports_ = 0;
  double last_report_time_ = 0.0;
};

struct Report {
  stream::ResultPair pair;
  net::NodeId discoverer = 0;
  double now = 0.0;
};

constexpr std::size_t kNodes = 4;

// Seeded report stream: a `duplicate_rate` share of reports repeats an
// earlier pair, report times are unordered, and discoverers range two past
// the node count (out-of-range discoverers are counted but credit no one).
std::vector<Report> report_stream(std::uint64_t seed, std::size_t length,
                                  double duplicate_rate) {
  common::Xoshiro256 rng(seed);
  std::vector<Report> reports;
  reports.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    Report report;
    if (!reports.empty() && rng.next_double() < duplicate_rate) {
      report.pair = reports[rng.next_below(reports.size())].pair;
    } else {
      report.pair = {rng.next_below(1 << 16) + 1, rng.next_below(1 << 16) + 1};
    }
    report.discoverer = static_cast<net::NodeId>(rng.next_below(kNodes + 2));
    report.now = rng.next_double_in(0.0, 1000.0);
    reports.push_back(report);
  }
  return reports;
}

void expect_same(const MetricsCollector& actual, const HashSetCollector& want) {
  EXPECT_EQ(actual.distinct_pairs(), want.distinct_pairs());
  EXPECT_EQ(actual.per_node_discoveries(), want.per_node_discoveries());
  EXPECT_EQ(actual.pairs(), want.pairs());
  EXPECT_EQ(actual.total_reports(), want.total_reports());
  EXPECT_EQ(actual.last_report_time(), want.last_report_time());
}

TEST(MetricsCollector, MatchesHashSetReferenceOnSeededStreams) {
  std::uint64_t seed = 1;
  for (const std::size_t length : {10u, 5'000u, 200'000u}) {
    for (const double duplicate_rate : {0.0, 0.5, 0.9}) {
      SCOPED_TRACE(testing::Message() << "length " << length << ", duplicates "
                                      << duplicate_rate);
      const auto reports = report_stream(seed++, length, duplicate_rate);
      // `quiet` is read only at the end; `polled` is read mid-stream, each
      // reader in turn, so folds also run at points the log size alone
      // would not choose.
      MetricsCollector quiet;
      MetricsCollector polled;
      quiet.set_node_count(kNodes);
      polled.set_node_count(kNodes);
      HashSetCollector want(kNodes);
      const std::size_t stride = length / 7 + 1;
      for (std::size_t i = 0; i < reports.size(); ++i) {
        const Report& report = reports[i];
        quiet.record_pair(report.pair, report.discoverer, report.now);
        polled.record_pair(report.pair, report.discoverer, report.now);
        want.record_pair(report.pair, report.discoverer, report.now);
        if (i % stride != stride - 1) continue;
        switch (i / stride % 3) {
          case 0:
            EXPECT_EQ(polled.distinct_pairs(), want.distinct_pairs());
            break;
          case 1:
            EXPECT_EQ(polled.per_node_discoveries(),
                      want.per_node_discoveries());
            break;
          default:
            EXPECT_EQ(polled.pairs(), want.pairs());
        }
      }
      expect_same(quiet, want);
      expect_same(polled, want);
    }
  }
}

std::vector<stream::ResultPair> ordered_set_union(
    const std::vector<std::vector<stream::ResultPair>>& lists) {
  std::set<stream::ResultPair> all;
  for (const auto& list : lists) all.insert(list.begin(), list.end());
  return {all.begin(), all.end()};
}

std::vector<stream::ResultPair> merged(
    const std::vector<std::vector<stream::ResultPair>>& lists) {
  std::vector<std::span<const stream::ResultPair>> spans(lists.begin(),
                                                         lists.end());
  return merge_pair_lists(spans);
}

TEST(MergePairLists, MatchesOrderedSetUnion) {
  // Overlapping lists: three collectors' snapshots over one shared stream,
  // each taking an overlapping share of its reports.
  const auto reports = report_stream(7, 20'000, 0.5);
  std::vector<std::vector<stream::ResultPair>> overlapping;
  for (std::size_t k = 0; k < 3; ++k) {
    MetricsCollector collector;
    for (std::size_t i = 0; i < reports.size(); ++i) {
      if ((i + k) % 4 != 0) collector.record_pair(reports[i].pair, 0, 0.0);
    }
    overlapping.push_back(collector.pairs());
  }
  const std::vector<std::vector<std::vector<stream::ResultPair>>> cases = {
      {},                                    // no lists
      {overlapping[0]},                      // one list: a copy
      {{}, {}, {}},                          // only empty lists
      {{}, overlapping[1], {}},              // empty lists around one
      overlapping,                           // overlapping lists
      {overlapping[2], overlapping[2]},      // identical lists
      {{{1, 2}, {5, 5}}, {{1, 3}, {4, 9}}},  // disjoint, interleaved
  };
  for (std::size_t c = 0; c < cases.size(); ++c) {
    SCOPED_TRACE(testing::Message() << "case " << c);
    EXPECT_EQ(merged(cases[c]), ordered_set_union(cases[c]));
  }
}

TEST(MergePairLists, SortsAndDeduplicatesMalformedLists) {
  // A report decoded off the wire need not hold a sorted, duplicate-free
  // list; the union stays exact regardless.
  const std::vector<std::vector<stream::ResultPair>> lists = {
      {{3, 1}, {1, 2}, {3, 1}},
      {{1, 2}, {2, 2}},
      {{0, 7}, {0, 7}},
  };
  EXPECT_EQ(merged(lists), ordered_set_union(lists));
}

TEST(AggregateNodeReports, MergesPerQueryThenAcrossQueries) {
  // Two nodes, two queries; pair {2, 2} is found at both nodes for query 0,
  // and {3, 3} by both queries at node 1.
  std::vector<NodeReport> reports(2);
  reports[0].node_id = 0;
  reports[0].queries.resize(2);
  reports[0].queries[0].pairs = {{1, 1}, {2, 2}};
  reports[0].queries[1].pairs = {{5, 1}};
  reports[1].node_id = 1;
  reports[1].queries.resize(2);
  reports[1].queries[0].pairs = {{2, 2}, {3, 3}};
  reports[1].queries[1].pairs = {{3, 3}, {4, 0}};

  ExperimentResult result;
  aggregate_node_reports(reports, &result);
  ASSERT_EQ(result.per_query.size(), 2u);
  EXPECT_EQ(result.per_query[0].pairs,
            (std::vector<stream::ResultPair>{{1, 1}, {2, 2}, {3, 3}}));
  EXPECT_EQ(result.per_query[1].pairs,
            (std::vector<stream::ResultPair>{{3, 3}, {4, 0}, {5, 1}}));
  EXPECT_EQ(result.per_query[0].reported_pairs, 3u);
  EXPECT_EQ(result.reported_pairs, 6u);  // each query is its own join
  EXPECT_EQ(result.pairs, (std::vector<stream::ResultPair>{
                              {1, 1}, {2, 2}, {3, 3}, {4, 0}, {5, 1}}));
}

TEST(AggregateNodeReports, SumsPartialDrains) {
  std::vector<NodeReport> reports(3);
  reports[0].partial_drains = 1;
  reports[2].partial_drains = 1;
  ExperimentResult result;
  aggregate_node_reports(reports, &result);
  EXPECT_EQ(result.partial_drains, 2u);
}

TEST(MarkPartialDrains, MakesTheRunUncleanAndNamesTheNodes) {
  ExperimentResult result;
  result.clean = true;
  mark_partial_drains({}, &result);
  EXPECT_TRUE(result.clean);
  EXPECT_TRUE(result.error.empty());

  const std::vector<net::NodeId> nodes{1, 3};
  mark_partial_drains(nodes, &result);
  EXPECT_FALSE(result.clean);
  EXPECT_NE(result.error.find("partial drain at nodes 1, 3"),
            std::string::npos)
      << result.error;
}

}  // namespace
}  // namespace dsjoin::core
