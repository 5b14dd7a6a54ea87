// Coordinator binary for the multi-process distributed runtime.
//
// Binds the control port, admits --nodes daemons (dsjoin_noded), runs one
// experiment, and prints a human summary plus one machine-parseable
// `REPORT key=value ...` line for scripts and the integration tests.
// Exit code 0 means the protocol ran to completion — including degraded
// runs where daemons died mid-stream; only setup failures exit nonzero.
#include <cstdio>
#include <string>

#include "dsjoin/common/cli.hpp"
#include "dsjoin/common/log.hpp"
#include "dsjoin/runtime/coordinator.hpp"

using namespace dsjoin;

namespace {

/// Publishes the bound control port for whoever spawned us: write to a
/// temp file, then rename — readers polling the path never see a partial
/// write.
bool write_port_file(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%u\n", port);
  std::fclose(f);
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  common::CliFlags flags("dsjoin coordinator: drives one distributed run");
  flags.add_int("port", 0, "control port (0 = ephemeral)")
      .add_string("port-file", "", "write the bound control port to this file")
      .add_int("nodes", 4, "number of daemons to admit")
      .add_string("queries", "RR:0.5:2",
                  "registered join queries, semicolon-separated "
                  "POLICY[:throttle[:half_width_s]] specs; POLICY is one of " +
                      core::policy_names_csv())
      .add_string("workload", "ZIPF", "workload (UNI|ZIPF|FIN|NWRK)")
      .add_int("tuples", 250, "tuples per node per stream side")
      .add_double("rate", 50.0, "arrivals per node per side per second")
      .add_int("seed", 7, "experiment seed")
      .add_double("admit-timeout", 30.0, "seconds to wait for all daemons")
      .add_double("run-timeout", 120.0, "ceiling on the ingest phase (s)")
      .add_double("drain-timeout", 30.0, "ceiling on drain + reports (s)")
      .add_int("coalesce-frames", 32,
               "max logical frames per data-plane wire record (1 = one "
               "record per frame; max 65535)")
      .add_int("coalesce-bytes", 1 << 16,
               "payload-byte budget per coalesced wire record")
      .add_double("summary-sync-epoch", 0.25,
                  "visibility grid (s, virtual time) for stamped summary "
                  "exchange (DESIGN.md section 12)")
      .add_int("quant-bits", 0,
               "preferred mantissa width for coefficient summaries (0 = f64, "
               "8 or 16 = fixed-point with per-block scale)")
      .add_int("sample-capacity", 0,
               "SMPL reservoir capacity per (node, side); 0 derives it from "
               "the summary byte budget (max 32768)")
      .add_int("sample-strata", 8, "SMPL hash strata per reservoir (1..4096)")
      .add_bool("verify", true, "recompute the oracle for epsilon/false pairs")
      .add_bool("verbose", false, "log protocol progress");
  if (auto s = flags.parse(argc, argv); !s) {
    return s.code() == common::ErrorCode::kFailedPrecondition ? 0 : 1;
  }
  common::set_log_level(flags.get_bool("verbose") ? common::LogLevel::kInfo
                                                  : common::LogLevel::kWarn);

  runtime::CoordinatorOptions options;
  options.port = static_cast<std::uint16_t>(flags.get_int("port"));
  options.admit_timeout_s = flags.get_double("admit-timeout");
  options.run_timeout_s = flags.get_double("run-timeout");
  options.drain_timeout_s = flags.get_double("drain-timeout");
  options.verify = flags.get_bool("verify");
  options.config.nodes = static_cast<std::uint32_t>(flags.get_int("nodes"));
  options.config.seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  options.config.workload = flags.get_string("workload");
  options.config.tuples_per_node =
      static_cast<std::uint64_t>(flags.get_int("tuples"));
  options.config.arrivals_per_second = flags.get_double("rate");
  options.config.coalesce_frames =
      static_cast<std::uint32_t>(flags.get_int("coalesce-frames"));
  options.config.coalesce_bytes =
      static_cast<std::uint32_t>(flags.get_int("coalesce-bytes"));
  options.config.summary_sync_epoch_s = flags.get_double("summary-sync-epoch");
  options.config.summary_quant_bits =
      static_cast<std::uint32_t>(flags.get_int("quant-bits"));
  const std::int64_t sample_capacity = flags.get_int("sample-capacity");
  options.config.sample_capacity =
      sample_capacity < 0 ? ~0u : static_cast<std::uint32_t>(sample_capacity);
  const std::int64_t sample_strata = flags.get_int("sample-strata");
  options.config.sample_strata =
      sample_strata < 0 ? 0 : static_cast<std::uint32_t>(sample_strata);
  const auto queries =
      core::parse_queries(flags.get_string("queries"), options.config);
  if (!queries) {
    std::fprintf(stderr, "error: %s\n", queries.status().message().c_str());
    return 1;
  }
  options.config.queries = queries.value();
  // The one validity gate every CLI site funnels through: ranges live in
  // core::validate_config, not per flag.
  if (auto valid = core::validate_config(options.config); !valid.is_ok()) {
    std::fprintf(stderr, "error: %s\n", valid.message().c_str());
    return 1;
  }

  runtime::Coordinator coordinator(options);
  std::printf("coordinator: control port %u, waiting for %u daemons\n",
              coordinator.port(), options.config.nodes);
  std::fflush(stdout);
  const std::string port_file = flags.get_string("port-file");
  if (!port_file.empty() && !write_port_file(port_file, coordinator.port())) {
    std::fprintf(stderr, "failed to write port file %s\n", port_file.c_str());
    return 1;
  }

  const runtime::RunReport report = coordinator.run();

  if (!report.clean) {
    std::fprintf(stderr, "run failed: %s\n", report.error.c_str());
    std::printf("REPORT clean=0 error=\"%s\"\n", report.error.c_str());
    return 1;
  }
  std::printf("\nnodes: %u admitted, %u failed mid-run\n",
              report.nodes_admitted, report.nodes_failed);
  std::printf("arrivals ingested: %llu\n",
              static_cast<unsigned long long>(report.total_arrivals));
  std::printf("pairs: %llu reported (exact %llu, false %llu)  epsilon %.4f\n",
              static_cast<unsigned long long>(report.reported_pairs),
              static_cast<unsigned long long>(report.exact_pairs),
              static_cast<unsigned long long>(report.false_pairs),
              report.epsilon);
  std::printf("traffic: %llu frames, %llu bytes\n",
              static_cast<unsigned long long>(report.traffic.total_frames()),
              static_cast<unsigned long long>(report.traffic.total_bytes()));
  if (report.per_query.size() > 1) {
    for (const auto& query : report.per_query) {
      std::printf(
          "query %u: %llu reported (exact %llu, false %llu)  epsilon %.4f\n",
          query.query_id,
          static_cast<unsigned long long>(query.reported_pairs),
          static_cast<unsigned long long>(query.exact_pairs),
          static_cast<unsigned long long>(query.false_pairs), query.epsilon);
    }
  }
  std::printf(
      "REPORT clean=1 nodes=%u failed=%u arrivals=%llu exact=%llu "
      "reported=%llu false=%llu epsilon=%.6f frames=%llu bytes=%llu\n",
      report.nodes_admitted, report.nodes_failed,
      static_cast<unsigned long long>(report.total_arrivals),
      static_cast<unsigned long long>(report.exact_pairs),
      static_cast<unsigned long long>(report.reported_pairs),
      static_cast<unsigned long long>(report.false_pairs), report.epsilon,
      static_cast<unsigned long long>(report.traffic.total_frames()),
      static_cast<unsigned long long>(report.traffic.total_bytes()));
  return 0;
}
