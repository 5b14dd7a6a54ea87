// Experiment configuration.
//
// One SystemConfig describes a complete distributed-join experiment: the
// cluster, the WAN profile, the workload, the query set under test (each
// query's routing policy, throttle and window) and the summary budget.
// Every bench builds these and hands them to DspSystem.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dsjoin/common/serialize.hpp"
#include "dsjoin/net/sim_transport.hpp"

namespace dsjoin::core {

/// The routing policies of Section 6 (plus round-robin, the paper's
/// fallback for the detected worst case).
enum class PolicyKind {
  kBase,        ///< BASE: broadcast every tuple to all N-1 peers (exact)
  kRoundRobin,  ///< RR: one peer per tuple, cycled (the fallback heuristic)
  kDft,         ///< DFT: flow filtering on DFT cross-correlation coefficients
  kDftt,        ///< DFTT: DFT + membership tests on reconstructed tuples
  kBloom,       ///< BLOOM: membership tests on counting-Bloom snapshots
  kSketch,      ///< SKCH: flow weights from AGMS join-size estimates
  kSpectrum,    ///< SPEC (ours): flow weights from histogram-DFT join-size
                ///< estimates — deterministic counterpart of SKCH (ablation A3)
  kSample,      ///< SMPL (ours): stratified reservoir samples with
                ///< Horvitz–Thompson join-size estimates and confidence
                ///< bounds (the StreamApprox-style competitor)
};

/// One row of the policy registry: the enum value and its CLI spelling.
struct PolicyName {
  PolicyKind kind;
  const char* name;
};

/// Every policy with its canonical CLI name, in enum order. The single
/// source of truth for to_string / policy_from_string and for every CLI
/// site's `--policy` help text, so a new policy appears everywhere at once.
std::span<const PolicyName> policy_names() noexcept;

/// "BASE | RR | DFT | ..." — the registry rendered for help/error text.
std::string policy_names_csv();

const char* to_string(PolicyKind kind) noexcept;
PolicyKind policy_from_string(const std::string& name);

/// Summary-state family a policy consumes. Queries of the same family
/// share one ingest-side engine in core::SummarySubstrate (multi-query
/// serving, DESIGN.md §15); BASE and RR consume no summaries at all.
enum class SummaryFamily : std::uint8_t {
  kNone = 0,      ///< BASE / RR: pure routing, no summary state
  kCoeff = 1,     ///< DFT / DFTT: sliding-DFT coefficient stores
  kBloom = 2,     ///< BLOOM: counting-Bloom snapshots
  kSketch = 3,    ///< SKCH: AGMS sketches
  kSpectrum = 4,  ///< SPEC: histogram-DFT spectra
  kSample = 5,    ///< SMPL: stratified reservoir samples
};

inline constexpr std::size_t kSummaryFamilies = 6;

SummaryFamily family_of(PolicyKind kind) noexcept;

/// One registered sliding-window join query (DESIGN.md §15): its routing
/// policy, forwarding aggressiveness and window half-width. Everything
/// else — summary geometry, WAN profile, workload, batching — is
/// base-config by construction, which is what makes the ingest-side
/// summary substrate shareable across queries.
struct QuerySpec {
  std::uint32_t id = 0;        ///< unique within the run; travels on the wire
  PolicyKind policy = PolicyKind::kDftt;
  /// Forwarding aggressiveness in [0, 1]; the epsilon calibrator bisects
  /// this. Maps to a per-node budget T in [1, N-1] (policy-specific).
  double throttle = 0.5;
  /// Join semantics: pair (r, s) joins iff keys match and
  /// |r.timestamp - s.timestamp| <= join_half_width_s.
  double join_half_width_s = 10.0;
};

/// Hard cap on registered queries per run: the per-tuple wire mask is a
/// u64 bitmap, and the cap keeps control-plane messages bounded.
inline constexpr std::size_t kMaxQueries = 64;

/// Hard cap on cluster size: tuple frames carry the origin node in one
/// byte (stream::Tuple::serialize), and results ship back to that origin.
inline constexpr std::uint32_t kMaxNodes = 256;

/// Full experiment description. Defaults give a small, fast, paper-shaped
/// run; benches override what each figure sweeps.
struct SystemConfig {
  // Cluster.
  std::uint32_t nodes = 4;
  std::uint64_t seed = 42;
  net::WanProfile wan{};

  // Workload.
  std::string workload = "ZIPF";  ///< UNI | ZIPF | FIN | NWRK
  std::uint32_t regions = 2;
  double locality = 0.85;
  double noise = 0.20;  ///< background (cold-key) tuple fraction
  std::int64_t domain = 1 << 19;
  double arrivals_per_second = 25.0;  ///< per node per stream side
  std::uint64_t tuples_per_node = 4000;  ///< arrivals per node per side

  // Summaries.
  std::uint32_t dft_window = 2048;    ///< W: values per per-side sliding DFT
  double kappa = 256.0;               ///< compression factor W/K
  std::uint32_t summary_epoch_tuples = 256;  ///< tuples between summary flushes
  /// Virtual-time grid (seconds) on which stamped summaries become visible
  /// to receivers. A summary emitted at virtual time tau is applied by the
  /// receiver at the first grid multiple strictly greater than
  /// tau + wan.latency_min_s (see summary_visible_time), on every backend.
  /// Must be > 0.
  double summary_sync_epoch_s = 0.25;
  std::int64_t membership_tolerance = 32;  ///< +/- slack for reconstructed keys
  /// Preferred fixed-point mantissa width for coefficient summaries
  /// (wire format v4): 0 disables quantization (coefficients ship as f64,
  /// the historical format), 8 or 16 quantize each coefficient block to
  /// int8/int16 mantissas behind one f64 scale. The encoder escalates
  /// 8 -> 16 -> f64 per block whenever the predicted added reconstruction
  /// MSE would exceed dsp::kQuantMseBudget, so the paper's Section 5.3
  /// lossless-after-rounding bound is never at risk.
  std::uint32_t summary_quant_bits = 0;

  // Stratified sampling (SMPL policy only; DESIGN.md §14).
  /// Target live sample size per stream side, split across strata. 0 keeps
  /// the Section 6 equal-budget discipline: the capacity is derived from
  /// summary_budget_bytes() so SMPL's wire summary costs what a DFT
  /// coefficient summary costs (see sample_capacity_effective()).
  std::uint32_t sample_capacity = 0;
  /// Key strata (hash(key) mod strata) so hot keys cannot crowd the whole
  /// sample; each stratum gets capacity/strata slots.
  std::uint32_t sample_strata = 8;

  /// The query set under test (DESIGN.md §15): one entry per registered
  /// join, in canonical order. The default is the paper's one join — DFTT,
  /// throttle 0.5, +/-10 s. The tuple and result wire formats carry
  /// per-query fields only when more than one query is registered
  /// (multi_query_mode). Never empty in a valid config.
  std::vector<QuerySpec> queries = std::vector<QuerySpec>(1);

  // Flow control.
  /// Ingestion stalls while the node's worst outgoing-link backlog exceeds
  /// this (models a bounded send queue); 0 disables backpressure.
  double max_backlog_s = 10.0;

  // Data-plane batching (socket backends only; the simulator models links,
  // not sockets). Logical traffic accounting is unaffected by batching —
  // these knobs change syscall count and header bytes, never frame counts.
  /// Max logical frames coalesced into one wire record per directed link.
  /// 1 = one record per frame (coalescing off); capped at 65535 (the batch
  /// record's count field is a u16).
  std::uint32_t coalesce_frames = 32;
  /// Payload-byte budget per coalesced record; a buffer holding at least
  /// this many pending payload bytes flushes immediately.
  std::uint32_t coalesce_bytes = 1 << 16;
  /// Max seconds the oldest buffered frame may wait before the next send
  /// on its link triggers a flush (bounds staleness under slow traffic;
  /// control frames always flush immediately regardless).
  double coalesce_linger_s = 0.005;

  // Parallel execution.
  /// Execution strands for the simulator driver. 0 (default) runs every
  /// event on the caller's thread — the historical serial path. k >= 1
  /// runs each epoch's per-node work on k strands (the caller plus k-1
  /// pool workers); nodes are shared-nothing and all cross-node effects
  /// are applied in canonical order at the epoch barrier, so results are
  /// bit-identical to the serial driver (see DESIGN.md §6; the one caveat
  /// is backpressure engaging mid-epoch, which the paper's approximate
  /// policies never trigger).
  std::uint32_t worker_threads = 0;

  /// Feed every arrival to the exact-join oracle (needed for epsilon /
  /// |Psi|). The oracle is inherently global and serial; large-scale
  /// throughput runs can switch it off and measure wall-clock honestly.
  bool oracle_enabled = true;

  // Online epsilon controller (extension; the paper calibrates offline).
  // Each node broadcasts a small audit sample of its tuples to all peers;
  // comparing the remote-match rate of audited vs policy-routed tuples
  // yields an unbiased online estimate of the missed-result fraction, which
  // a proportional controller drives to the target by adjusting the
  // throttle (its audit rate, gain and cadence are constants in node.cpp).
  // Disabled when online_target_eps < 0.
  double online_target_eps = -1.0;

  /// Summary budget per epoch in bytes (all policies are granted the same
  /// budget, Section 6). Derived from the DFT geometry: K complex coeffs.
  std::size_t summary_budget_bytes() const noexcept {
    const auto k = static_cast<std::size_t>(
        static_cast<double>(dft_window) / kappa < 1.0
            ? 1.0
            : static_cast<double>(dft_window) / kappa);
    return k * 16;
  }

  /// Retained coefficient count K for the DFT policies.
  std::size_t dft_retained() const noexcept { return summary_budget_bytes() / 16; }

  /// Live sample size the SMPL policy targets per stream side: the explicit
  /// knob when set, otherwise the summary byte budget divided by the
  /// per-key wire cost (24 bytes: i64 key + f64 weight + f64 variance), so
  /// a sample summary spends the same budget as a coefficient summary.
  std::uint32_t sample_capacity_effective() const noexcept {
    if (sample_capacity != 0) return sample_capacity;
    const auto derived = static_cast<std::uint32_t>(summary_budget_bytes() / 24);
    return std::max({derived, sample_strata, 2u});
  }

  /// Virtual time at which a summary stamped with `emit_time` becomes
  /// visible to its receiver: the first summary_sync_epoch_s multiple
  /// strictly greater than emit_time + wan.latency_min_s. Strictly greater
  /// keeps the parallel simulator driver deterministic — a summary emitted
  /// inside epoch [W, W + w) becomes visible only after W + w, i.e. never
  /// within the epoch that emitted it (this also holds when w == 0).
  double summary_visible_time(double emit_time) const noexcept {
    const double grid = summary_sync_epoch_s;
    return grid * (std::floor((emit_time + wan.latency_min_s) / grid) + 1.0);
  }
};

/// The query set an engine serves: `config.queries` itself.
inline const std::vector<QuerySpec>& effective_queries(
    const SystemConfig& config) {
  return config.queries;
}

/// True when more than one query is registered — tuple frames then carry a
/// query mask and result frames a query id.
inline bool multi_query_mode(const SystemConfig& config) {
  return config.queries.size() > 1;
}

/// Max window half-width across registered queries — the shared local
/// windows retain to this horizon so every query can match.
double max_join_half_width(const SystemConfig& config);

/// The one validity gate for a SystemConfig, shared by every CLI site,
/// the control-plane decoder and the engine entry points (previously the
/// ranges were duplicated per flag in bench_util.hpp and dsjoin_coord).
/// kInvalidArgument with a human-readable message on the first violation.
common::Status validate_config(const SystemConfig& config);

/// Parses a `--queries` CLI value: semicolon-separated query specs, each
/// `POLICY[:throttle[:half_width_s]]` (e.g. "DFTT:0.5:10;SMPL:0.7:4").
/// Omitted fields default to those of base.queries.front(). IDs are
/// assigned in order starting at 0. kInvalidArgument on syntax errors;
/// an empty string yields base.queries unchanged.
common::Result<std::vector<QuerySpec>> parse_queries(
    const std::string& text, const SystemConfig& base);

/// Wire encoding of a complete SystemConfig (every field, WAN profile
/// included), so a coordinator can ship one config to remote node daemons.
/// The layout is covered by the control-plane protocol version.
void serialize_config(const SystemConfig& config, common::BufferWriter& out);

/// Decodes a config, validating enum fields; kDataLoss on truncation or
/// out-of-range values.
common::Result<SystemConfig> deserialize_config(common::BufferReader& in);

}  // namespace dsjoin::core
