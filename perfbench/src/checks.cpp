#include "checks.hpp"

#include <cstdint>
#include <string>

#include "dsjoin/core/schedule.hpp"

namespace perfbench {

namespace core = dsjoin::core;
namespace net = dsjoin::net;

namespace {

std::string counted(const std::string& what, std::uint64_t n) {
  return what + ": " + std::to_string(n);
}

}  // namespace

std::vector<std::string> result_problems(const core::ExperimentResult& result) {
  std::vector<std::string> problems;
  if (!result.clean) problems.push_back("run not clean: " + result.error);
  if (result.false_pairs != 0) {
    problems.push_back(counted("false pairs", result.false_pairs));
  }
  if (result.decode_failures != 0) {
    problems.push_back(counted("decode failures", result.decode_failures));
  }
  if (result.late_summaries != 0) {
    problems.push_back(counted("late summaries", result.late_summaries));
  }
  if (result.exact_pairs == 0) problems.push_back("empty exact join");
  return problems;
}

std::vector<std::string> sim_join_problems(
    const core::SystemConfig& config, std::span<const dsjoin::stream::Tuple> arrivals,
    const core::ExperimentResult& result) {
  std::vector<std::string> problems;
  core::ArrivalSchedule emitted;
  emitted.tuples.assign(arrivals.begin(), arrivals.end());
  const auto specs = core::effective_queries(config);
  if (specs.size() != result.per_query.size()) {
    problems.push_back("per-query results do not match the query list");
    return problems;
  }
  for (std::size_t q = 0; q < specs.size(); ++q) {
    const double width = specs[q].join_half_width_s;
    const core::QueryResult& query = result.per_query[q];
    const auto false_pairs = core::count_false_pairs(emitted, width, query.pairs);
    if (false_pairs != 0) {
      problems.push_back(counted("false pairs in a query", false_pairs));
    }
    if (core::exact_pairs(emitted, width) != query.exact_pairs) {
      problems.push_back("exact join of the emitted arrivals differs from the oracle");
    }
  }
  return problems;
}

std::string deterministic_difference(const core::ExperimentResult& a,
                                     const core::ExperimentResult& b,
                                     bool result_frames) {
  if (a.epsilon != b.epsilon) return "epsilon";
  if (a.reported_pairs != b.reported_pairs) return "reported pairs";
  if (a.exact_pairs != b.exact_pairs) return "exact pairs";
  if (a.total_arrivals != b.total_arrivals) return "arrivals";
  for (std::size_t k = 0; k < a.traffic.frames_by_kind.size(); ++k) {
    const auto kind_id = static_cast<net::FrameKind>(k);
    if (kind_id == net::FrameKind::kResult && !result_frames) continue;
    const char* kind = net::to_string(kind_id);
    if (a.traffic.frames_by_kind[k] != b.traffic.frames_by_kind[k]) {
      return std::string(kind) + " frames";
    }
    if (a.traffic.bytes_by_kind[k] != b.traffic.bytes_by_kind[k]) {
      return std::string(kind) + " bytes";
    }
  }
  if (a.traffic.piggyback_bytes != b.traffic.piggyback_bytes) {
    return "piggyback bytes";
  }
  return "";
}

}  // namespace perfbench
