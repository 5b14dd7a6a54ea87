// Quickstart: run one distributed approximate window join and compare the
// DFTT algorithm against the exact BASE broadcast.
//
//   ./quickstart [--nodes 6] [--workload ZIPF] [--queries DFTT:0.5:10] ...
//
// Prints, for the chosen query set and for the same set routed by BASE:
// epsilon, messages per result tuple, and throughput — the paper's three
// headline metrics (Section 6).
#include <cstdint>
#include <cstdio>
#include <string>

#include "dsjoin/common/cli.hpp"
#include "dsjoin/common/table.hpp"
#include "dsjoin/core/system.hpp"
#include "dsjoin/net/stats.hpp"

using namespace dsjoin;

int main(int argc, char** argv) {
  common::CliFlags flags(
      "dsjoin quickstart: one approximate distributed window join vs BASE");
  flags.add_int("nodes", 6, "number of processing nodes")
      .add_string("workload", "ZIPF", "UNI | ZIPF | FIN | NWRK")
      .add_string("queries", "DFTT:0.5:10",
                  "registered join queries served against one shared "
                  "summary substrate, semicolon-separated "
                  "POLICY[:throttle[:half_width_s]] specs (DESIGN.md "
                  "section 15); POLICY is one of " + core::policy_names_csv())
      .add_int("tuples", 3000, "tuples per node per stream side")
      .add_int("kappa", 256, "DFT compression factor")
      .add_int("tolerance", 2, "DFTT membership tolerance (+/- keys)")
      .add_double("noise", 0.15, "background cold-tuple fraction")
      .add_int("seed", 42, "experiment seed");
  if (auto status = flags.parse(argc, argv); !status) {
    return status.code() == common::ErrorCode::kFailedPrecondition ? 0 : 1;
  }

  core::SystemConfig config;
  config.nodes = static_cast<std::uint32_t>(flags.get_int("nodes"));
  config.workload = flags.get_string("workload");
  config.tuples_per_node = static_cast<std::uint64_t>(flags.get_int("tuples"));
  config.kappa = static_cast<double>(flags.get_int("kappa"));
  config.membership_tolerance = flags.get_int("tolerance");
  config.noise = flags.get_double("noise");
  config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  const std::string query_list = flags.get_string("queries");
  const auto queries = core::parse_queries(query_list, config);
  if (!queries) {
    std::fprintf(stderr, "error: %s\n", queries.status().message().c_str());
    return 1;
  }
  config.queries = queries.value();
  if (auto valid = core::validate_config(config); !valid.is_ok()) {
    std::fprintf(stderr, "error: %s\n", valid.message().c_str());
    return 1;
  }

  std::printf("Running %s on %s with %u nodes (%llu tuples/node/side)...\n",
              query_list.c_str(), config.workload.c_str(), config.nodes,
              static_cast<unsigned long long>(config.tuples_per_node));
  const auto approx = core::run_experiment(config);

  // The exact reference: the same queries (same windows), each broadcast.
  std::printf("Running BASE reference...\n");
  core::SystemConfig base_config = config;
  for (auto& spec : base_config.queries) spec.policy = core::PolicyKind::kBase;
  const auto base = core::run_experiment(base_config);

  common::TablePrinter table("quickstart: " + query_list + " vs BASE",
                             {"metric", query_list, "BASE"});
  table.add("epsilon (missed results)", approx.epsilon, base.epsilon);
  table.add("messages per result tuple", approx.messages_per_result,
            base.messages_per_result);
  table.add("results per second", approx.results_per_second,
            base.results_per_second);
  table.add("total frames", approx.traffic.total_frames(),
            base.traffic.total_frames());
  table.add("exact pairs |Psi|", approx.exact_pairs, base.exact_pairs);
  table.add("reported pairs", approx.reported_pairs, base.reported_pairs);
  table.add("summary byte share", approx.summary_byte_fraction,
            base.summary_byte_fraction);
  table.add("tuple frames", approx.traffic.frames(net::FrameKind::kTuple),
            base.traffic.frames(net::FrameKind::kTuple));
  table.add("summary frames", approx.traffic.frames(net::FrameKind::kSummary),
            base.traffic.frames(net::FrameKind::kSummary));
  table.add("result frames", approx.traffic.frames(net::FrameKind::kResult),
            base.traffic.frames(net::FrameKind::kResult));
  table.add("makespan (virtual s)", approx.makespan_s, base.makespan_s);
  table.print();

  if (approx.per_query.size() > 1) {
    std::printf("\nPer-query breakdown (shared substrate, one ingest per "
                "tuple — DESIGN.md section 15):\n");
    for (std::size_t q = 0; q < approx.per_query.size(); ++q) {
      const auto& query = approx.per_query[q];
      std::printf(
          "  query %u [%s]: %llu reported (exact %llu)  epsilon %.4f\n",
          query.query_id, core::to_string(config.queries[q].policy),
          static_cast<unsigned long long>(query.reported_pairs),
          static_cast<unsigned long long>(query.exact_pairs), query.epsilon);
    }
  }

  std::printf(
      "\nReading the table: the approximate policy should report most of\n"
      "BASE's pairs (low epsilon) while sending several times fewer\n"
      "messages per result tuple.\n");
  return 0;
}
