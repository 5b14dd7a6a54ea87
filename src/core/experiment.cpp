#include "dsjoin/core/experiment.hpp"

#include <algorithm>
#include <map>

#include "dsjoin/core/config.hpp"
#include "dsjoin/core/metrics.hpp"
#include "dsjoin/core/schedule.hpp"

namespace dsjoin::core {

const char* to_string(Backend backend) noexcept {
  switch (backend) {
    case Backend::kSim:
      return "sim";
    case Backend::kTcpInprocess:
      return "tcp-inprocess";
    case Backend::kMultiprocess:
      return "multiprocess";
  }
  return "unknown";
}

common::Result<Backend> backend_from_string(const std::string& name) {
  if (name == "sim") return Backend::kSim;
  if (name == "tcp-inprocess") return Backend::kTcpInprocess;
  if (name == "multiprocess") return Backend::kMultiprocess;
  return common::Status(
      common::ErrorCode::kInvalidArgument,
      "unknown backend '" + name +
          "' (expected sim | tcp-inprocess | multiprocess)");
}

void aggregate_node_reports(std::span<const NodeReport> reports,
                            ExperimentResult* result, bool merge_traffic) {
  std::size_t query_count = 0;
  for (const auto& report : reports) {
    result->total_arrivals += report.local_tuples;
    result->decode_failures += report.decode_failures;
    result->late_summaries += report.late_summaries;
    result->partial_drains += report.partial_drains;
    result->predicted_missed_mass += report.predicted_missed_mass;
    result->predicted_total_mass += report.predicted_total_mass;
    if (merge_traffic) result->traffic.merge(report.traffic);
    query_count = std::max(query_count, report.queries.size());
  }
  if (result->per_query.size() < query_count) {
    result->per_query.resize(query_count);
  }

  // Per-query fold: every report lists its queries in the same canonical
  // order, so entry i across reports is the same query. Each query's pair
  // set deduplicates independently (queries are distinct joins).
  std::vector<std::span<const stream::ResultPair>> lists;
  lists.reserve(reports.size() + query_count);
  std::uint64_t reported = 0;
  for (std::size_t q = 0; q < query_count; ++q) {
    QueryResult& out = result->per_query[q];
    lists.clear();
    for (const auto& report : reports) {
      if (q >= report.queries.size()) continue;
      const QueryNodeReport& slice = report.queries[q];
      out.query_id = slice.query_id;
      out.received_tuples += slice.received_tuples;
      out.forwarded_tuples += slice.forwarded_tuples;
      out.result_frames += slice.result_frames;
      out.summary_frames += slice.summary_frames;
      out.predicted_missed_mass += slice.predicted_missed_mass;
      out.predicted_total_mass += slice.predicted_total_mass;
      lists.push_back(slice.pairs);
    }
    out.pairs = merge_pair_lists(lists);
    out.reported_pairs = out.pairs.size();
    reported += out.reported_pairs;
  }

  // The cross-query union; the aggregate count is the sum over queries
  // (each its own join).
  lists.clear();
  for (std::size_t q = 0; q < query_count; ++q) {
    lists.push_back(result->per_query[q].pairs);
  }
  result->pairs = merge_pair_lists(lists);
  result->reported_pairs = reported;
}

void verify_against_schedule(const SystemConfig& config,
                             std::span<const stream::ResultPair>,
                             ExperimentResult* result) {
  verify_against_schedule(config, ArrivalSchedule::build(config), result);
}

void verify_against_schedule(const SystemConfig& config,
                             const ArrivalSchedule& schedule,
                             ExperimentResult* result) {
  // One entry per registered query, also when no node reported.
  if (result->per_query.size() < config.queries.size()) {
    result->per_query.resize(config.queries.size());
  }
  // Per-query verification: replay the one schedule against each query's
  // own window. Caching by half-width keeps N identical-width queries at
  // one oracle pass.
  std::map<double, std::uint64_t> exact_by_width;
  result->exact_pairs = 0;
  result->false_pairs = 0;
  for (std::size_t q = 0; q < config.queries.size(); ++q) {
    QueryResult& query = result->per_query[q];
    query.query_id = config.queries[q].id;
    const double width = config.queries[q].join_half_width_s;
    auto [it, fresh] = exact_by_width.try_emplace(width, 0);
    if (fresh) it->second = exact_pairs(schedule, width);
    query.exact_pairs = it->second;
    query.false_pairs = count_false_pairs(schedule, width, query.pairs);
    result->exact_pairs += query.exact_pairs;
    result->false_pairs += query.false_pairs;
  }
}

void mark_partial_drains(std::span<const net::NodeId> nodes,
                         ExperimentResult* result) {
  if (nodes.empty()) return;
  std::string error = "partial drain at nodes";
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    error += (i == 0 ? " " : ", ") + std::to_string(nodes[i]);
  }
  result->clean = false;
  result->error = error + "; their pairs may be incomplete";
}

void finalize_derived_metrics(ExperimentResult* result) {
  result->epsilon =
      result->exact_pairs == 0
          ? 0.0
          : 1.0 - static_cast<double>(result->reported_pairs) /
                      static_cast<double>(result->exact_pairs);
  result->predicted_epsilon_bound =
      result->predicted_total_mass > 0.0
          ? std::min(1.0, std::max(0.0, result->predicted_missed_mass /
                                            result->predicted_total_mass))
          : -1.0;
  result->messages_per_result =
      result->reported_pairs == 0
          ? static_cast<double>(result->traffic.total_frames())
          : static_cast<double>(result->traffic.total_frames()) /
                static_cast<double>(result->reported_pairs);
  if (result->makespan_s > 0.0) {
    result->results_per_second =
        static_cast<double>(result->reported_pairs) / result->makespan_s;
    result->ingest_per_second =
        static_cast<double>(result->total_arrivals) / result->makespan_s;
  }
  result->summary_byte_fraction = result->traffic.summary_byte_fraction();
  for (QueryResult& query : result->per_query) {
    query.epsilon = query.exact_pairs == 0
                        ? 0.0
                        : 1.0 - static_cast<double>(query.reported_pairs) /
                                    static_cast<double>(query.exact_pairs);
    query.predicted_epsilon_bound =
        query.predicted_total_mass > 0.0
            ? std::min(1.0, std::max(0.0, query.predicted_missed_mass /
                                              query.predicted_total_mass))
            : -1.0;
  }
}

}  // namespace dsjoin::core
