// Shared helpers for the figure/table reproduction harnesses.
//
// Every bench prints (a) an aligned table mirroring the paper's figure and
// (b) a CSV block for plotting, then exits 0. Scales are laptop-sized; the
// reproduction target is the *shape* of each figure (see EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "dsjoin/common/cli.hpp"
#include "dsjoin/common/simd.hpp"
#include "dsjoin/common/table.hpp"
#include "dsjoin/core/calibration.hpp"
#include "dsjoin/core/system.hpp"
#include "dsjoin/runtime/engine.hpp"

// Stamped into every BENCH_*.json by json_meta(); the build injects the
// real short hash via target_compile_definitions in bench/CMakeLists.txt.
#ifndef DSJOIN_GIT_HASH
#define DSJOIN_GIT_HASH "unknown"
#endif

namespace dsjoin::bench {

/// The algorithm set of Section 6, in the paper's presentation order,
/// plus the sampling-based SMPL policy (DESIGN.md section 14).
inline const std::vector<core::PolicyKind>& evaluated_policies() {
  static const std::vector<core::PolicyKind> kPolicies{
      core::PolicyKind::kDftt,   core::PolicyKind::kDft,
      core::PolicyKind::kBloom,  core::PolicyKind::kSketch,
      core::PolicyKind::kSample, core::PolicyKind::kBase};
  return kPolicies;
}

/// One-line run-provenance object for BENCH_*.json artifacts: which build,
/// which SIMD dispatch level, and which engine backplane produced the
/// numbers. Comparing two artifacts starts with comparing these.
inline std::string json_meta(const std::string& backend) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "{\"git_hash\": \"%s\", \"simd\": \"%s\", \"backend\": \"%s\"}",
                DSJOIN_GIT_HASH,
                common::simd::level_name(common::simd::active_level()),
                backend.c_str());
  return buf;
}

/// Baseline experiment configuration shared by the system-level figures.
inline core::SystemConfig figure_config(const std::string& workload,
                                        std::uint32_t nodes,
                                        std::uint64_t tuples_per_node,
                                        std::uint64_t seed = 42) {
  core::SystemConfig config;
  config.workload = workload;
  config.nodes = nodes;
  config.regions = nodes <= 4 ? 2 : nodes / 3 + 1;
  config.tuples_per_node = tuples_per_node;
  config.seed = seed;
  if (workload == "UNI") {
    // The uniform worst case needs a denser key domain at laptop scale or
    // the exact join is too small to measure epsilon against.
    config.domain = 1 << 13;
  }
  return config;
}

/// Funnels a fully assembled config through the one validity gate
/// (core::validate_config) and exits with the violation message on
/// failure — every bench calls this after applying its flags, so the
/// accepted ranges live in exactly one place.
inline void validate_or_die(const core::SystemConfig& config) {
  const common::Status status = core::validate_config(config);
  if (!status.is_ok()) {
    std::fprintf(stderr, "error: %s\n", status.message().c_str());
    std::exit(1);
  }
}

/// Declares the shared `--workers` flag (parallel simulator driver).
inline void add_workers_flag(common::CliFlags& flags) {
  flags.add_int("workers", 0,
                "execution strands for the simulator (0 = serial driver; "
                "k >= 1 is bit-identical to serial unless backpressure "
                "engages, see DESIGN.md section 6)");
}

/// Applies `--workers` to a config. A negative count would wrap to a huge
/// unsigned thread total and abort inside the pool, so reject it here.
inline void apply_workers_flag(const common::CliFlags& flags,
                               core::SystemConfig& config) {
  const std::int64_t workers = flags.get_int("workers");
  if (workers < 0 || workers > 4096) {
    std::fprintf(stderr, "error: --workers must be in [0, 4096], got %lld\n",
                 static_cast<long long>(workers));
    std::exit(1);
  }
  config.worker_threads = static_cast<std::uint32_t>(workers);
}

/// Declares the shared data-plane batching knobs (socket backends only;
/// the simulator models links, not sockets — see DESIGN.md section 11).
inline void add_coalesce_flags(common::CliFlags& flags) {
  flags.add_int("coalesce-frames", 32,
                "max logical frames per wire record on the socket backends "
                "(1 = one record per frame, i.e. coalescing off; max 65535)");
  flags.add_int("coalesce-bytes", 1 << 16,
                "payload-byte budget per coalesced wire record; a link "
                "buffer at or above this flushes immediately");
  flags.add_double("summary-sync-epoch", 0.25,
                   "visibility grid (seconds, virtual time) for stamped "
                   "summary exchange; summaries apply at the next grid "
                   "point after emit + min link latency on every backend "
                   "(DESIGN.md section 12)");
}

/// Applies the batching knobs. The accepted ranges live in
/// core::validate_config — out-of-range values are rejected there with
/// the same print-and-exit treatment a negative `--workers` gets.
inline void apply_coalesce_flags(const common::CliFlags& flags,
                                 core::SystemConfig& config) {
  config.coalesce_frames =
      static_cast<std::uint32_t>(flags.get_int("coalesce-frames"));
  config.coalesce_bytes =
      static_cast<std::uint32_t>(flags.get_int("coalesce-bytes"));
  config.summary_sync_epoch_s = flags.get_double("summary-sync-epoch");
  validate_or_die(config);
}

/// Declares the shared `--quant-bits` flag (quantized coefficient wire
/// format, DESIGN.md section 13).
inline void add_quant_flag(common::CliFlags& flags) {
  flags.add_int("quant-bits", 0,
                "preferred mantissa width for coefficient summaries: 0 = "
                "f64 (off), 8 or 16 = fixed-point with per-block scale and "
                "automatic escalation to the next width when the predicted "
                "reconstruction MSE would breach the Section 5.3 budget");
}

/// Applies `--quant-bits`; widths outside {0, 8, 16} are rejected by
/// core::validate_config.
inline void apply_quant_flag(const common::CliFlags& flags,
                             core::SystemConfig& config) {
  config.summary_quant_bits =
      static_cast<std::uint32_t>(flags.get_int("quant-bits"));
  validate_or_die(config);
}

/// Declares the shared sampling knobs (SMPL policy, DESIGN.md section 14).
inline void add_sample_flags(common::CliFlags& flags) {
  flags.add_int("sample-capacity", 0,
                "reservoir capacity per (node, side) for the SMPL policy "
                "(0 = derive from the summary byte budget; max 32768)");
  flags.add_int("sample-strata", 8,
                "hash strata per reservoir for the SMPL policy (1..4096)");
}

/// Applies the sampling knobs; the ranges are enforced once, in
/// core::validate_config (shared with deserialize_config).
inline void apply_sample_flags(const common::CliFlags& flags,
                               core::SystemConfig& config) {
  const std::int64_t capacity = flags.get_int("sample-capacity");
  const std::int64_t strata = flags.get_int("sample-strata");
  config.sample_capacity =
      capacity < 0 ? ~0u : static_cast<std::uint32_t>(capacity);
  config.sample_strata = strata < 0 ? 0 : static_cast<std::uint32_t>(strata);
  validate_or_die(config);
}

/// Declares the shared `--backend` flag (experiment engine backplane).
inline void add_backend_flag(common::CliFlags& flags) {
  flags.add_string(
      "backend", "sim",
      "execution backplane: sim | tcp-inprocess | multiprocess. sim is the "
      "deterministic WAN simulator (virtual time); the socket backends run "
      "the same experiment over real loopback TCP and measure wall-clock "
      "time (see DESIGN.md section 10)");
}

/// Parses `--backend`, rejecting unknown names cleanly (the same treatment
/// negative `--workers` gets): print the valid spellings and exit 1.
inline core::Backend parse_backend_flag(const common::CliFlags& flags) {
  const auto backend = core::backend_from_string(flags.get_string("backend"));
  if (!backend) {
    std::fprintf(stderr, "error: %s\n", backend.status().message().c_str());
    std::exit(1);
  }
  return backend.value();
}

/// Runs one experiment on the chosen backplane. Calibration always happens
/// on the simulator (it needs the in-run oracle and virtual time); this is
/// the measurement run a figure reports.
inline core::ExperimentResult run_with_backend(core::Backend backend,
                                               const core::SystemConfig& config) {
  runtime::EngineOptions options;
  options.backend = backend;
  return runtime::run_experiment(config, options);
}

/// Prints both renderings of a finished table.
inline void emit(common::TablePrinter& table) {
  table.print();
  table.print_csv();
  std::puts("");
}

}  // namespace dsjoin::bench
