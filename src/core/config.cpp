#include "dsjoin/core/config.hpp"

#include <cmath>
#include <set>
#include <stdexcept>

#include "dsjoin/common/strformat.hpp"

namespace dsjoin::core {

namespace {

// The policy enum travels as its name, not its ordinal, so a config is
// readable in logs and the encoding survives enum reordering.

void serialize_wan(const net::WanProfile& wan, common::BufferWriter& out) {
  out.write_f64(wan.latency_min_s);
  out.write_f64(wan.latency_max_s);
  out.write_f64(wan.bandwidth_bps);
  out.write_u8(static_cast<std::uint8_t>(wan.scope));
  out.write_u8(wan.pause_burst_shaping ? 1 : 0);
  out.write_u8(wan.unlimited_bandwidth ? 1 : 0);
  out.write_f64(wan.drop_probability);
  out.write_f64(wan.corrupt_probability);
}

common::Result<net::WanProfile> deserialize_wan(common::BufferReader& in) {
  net::WanProfile wan;
  auto lat_min = in.read_f64();
  if (!lat_min) return lat_min.status();
  auto lat_max = in.read_f64();
  if (!lat_max) return lat_max.status();
  auto bps = in.read_f64();
  if (!bps) return bps.status();
  auto scope = in.read_u8();
  if (!scope) return scope.status();
  if (scope.value() > 1) {
    return common::Status(common::ErrorCode::kDataLoss, "bad bandwidth scope");
  }
  auto pause = in.read_u8();
  if (!pause) return pause.status();
  auto unlimited = in.read_u8();
  if (!unlimited) return unlimited.status();
  auto drop = in.read_f64();
  if (!drop) return drop.status();
  auto corrupt = in.read_f64();
  if (!corrupt) return corrupt.status();
  wan.latency_min_s = lat_min.value();
  wan.latency_max_s = lat_max.value();
  wan.bandwidth_bps = bps.value();
  wan.scope = static_cast<net::WanProfile::BandwidthScope>(scope.value());
  wan.pause_burst_shaping = pause.value() != 0;
  wan.unlimited_bandwidth = unlimited.value() != 0;
  wan.drop_probability = drop.value();
  wan.corrupt_probability = corrupt.value();
  return wan;
}

}  // namespace

SummaryFamily family_of(PolicyKind kind) noexcept {
  switch (kind) {
    case PolicyKind::kBase:
    case PolicyKind::kRoundRobin:
      return SummaryFamily::kNone;
    case PolicyKind::kDft:
    case PolicyKind::kDftt:
      return SummaryFamily::kCoeff;
    case PolicyKind::kBloom:
      return SummaryFamily::kBloom;
    case PolicyKind::kSketch:
      return SummaryFamily::kSketch;
    case PolicyKind::kSpectrum:
      return SummaryFamily::kSpectrum;
    case PolicyKind::kSample:
      return SummaryFamily::kSample;
  }
  return SummaryFamily::kNone;
}

double max_join_half_width(const SystemConfig& config) {
  double width = 0.0;
  for (const auto& spec : config.queries) {
    width = std::max(width, spec.join_half_width_s);
  }
  return width;
}

common::Status validate_config(const SystemConfig& config) {
  using common::ErrorCode;
  using common::str_format;
  auto fail = [](std::string message) {
    return common::Status(ErrorCode::kInvalidArgument, std::move(message));
  };
  if (config.nodes < 2) {
    return fail(str_format("nodes must be >= 2, got %u", config.nodes));
  }
  if (config.nodes > kMaxNodes) {
    return fail(str_format(
        "nodes must be <= %u (tuple frames carry the origin in one byte), "
        "got %u",
        kMaxNodes, config.nodes));
  }
  if (config.tuples_per_node > kMaxTuplesPerNode) {
    return fail(str_format("tuples must be <= 2^32, got %llu",
                           static_cast<unsigned long long>(
                               config.tuples_per_node)));
  }
  // The arrival schedule draws exponential gaps at this rate: 0 puts every
  // arrival at t = inf, a negative or NaN rate runs time backwards.
  if (!std::isfinite(config.arrivals_per_second) ||
      !(config.arrivals_per_second > 0.0)) {
    return fail(str_format("rate must be finite and > 0, got %g",
                           config.arrivals_per_second));
  }
  if (config.coalesce_frames < 1 || config.coalesce_frames > 0xFFFF) {
    return fail(str_format("coalesce-frames must be in [1, 65535], got %u",
                           config.coalesce_frames));
  }
  if (config.coalesce_bytes < 1 || config.coalesce_bytes > (1u << 24)) {
    return fail(str_format("coalesce-bytes must be in [1, %d], got %u",
                           1 << 24, config.coalesce_bytes));
  }
  if (!std::isfinite(config.summary_sync_epoch_s) ||
      !(config.summary_sync_epoch_s > 0.0) ||
      config.summary_sync_epoch_s > 3600.0) {
    return fail(str_format("summary-sync-epoch must be in (0, 3600], got %g",
                           config.summary_sync_epoch_s));
  }
  if (config.summary_quant_bits != 0 && config.summary_quant_bits != 8 &&
      config.summary_quant_bits != 16) {
    return fail(str_format("quant-bits must be 0, 8 or 16, got %u",
                           config.summary_quant_bits));
  }
  // The sample-summary wire format counts keys in a u16 and thinning can
  // briefly hold ~2x capacity, so the live sample must stay under 32768.
  if (config.sample_capacity > (1u << 15)) {
    return fail(str_format("sample-capacity must be in [0, %d], got %u",
                           1 << 15, config.sample_capacity));
  }
  if (config.sample_strata == 0 || config.sample_strata > 4096) {
    return fail(str_format("sample-strata must be in [1, 4096], got %u",
                           config.sample_strata));
  }
  // DFT geometry. Release builds do not check dsp::reconstruct's and
  // dsp::lag_max_correlation's K <= W/2 + 1 precondition, and a tolerance
  // beyond 2^31 could overflow key +/- tolerance in the membership test.
  if (config.membership_tolerance < 0 ||
      config.membership_tolerance > (std::int64_t{1} << 31)) {
    return fail(str_format("tolerance must be in [0, 2^31], got %lld",
                           static_cast<long long>(config.membership_tolerance)));
  }
  if (config.dft_window < 2) {
    return fail(str_format("dft-window must be >= 2, got %u",
                           config.dft_window));
  }
  if (!std::isfinite(config.kappa) || !(config.kappa > 0.0)) {
    return fail(str_format("kappa must be finite and > 0, got %g",
                           config.kappa));
  }
  // dft_retained() > W/2 + 1, compared before dft_retained() truncates
  // W / kappa to an integer (which overflows for a tiny kappa).
  if (static_cast<double>(config.dft_window) / config.kappa >=
      static_cast<double>(config.dft_window / 2 + 2)) {
    return fail(str_format(
        "kappa %g keeps more than dft-window/2 + 1 = %u coefficients",
        config.kappa, config.dft_window / 2 + 1));
  }
  if (config.queries.empty() || config.queries.size() > kMaxQueries) {
    return fail(str_format("a run serves 1 to %zu queries, got %zu",
                           kMaxQueries, config.queries.size()));
  }
  std::set<std::uint32_t> ids;
  for (const auto& spec : config.queries) {
    if (!ids.insert(spec.id).second) {
      return fail(str_format("duplicate query id %u", spec.id));
    }
    if (!std::isfinite(spec.throttle) || spec.throttle < 0.0 ||
        spec.throttle > 1.0) {
      return fail(str_format("query %u: throttle must be in [0, 1], got %g",
                             spec.id, spec.throttle));
    }
    if (!std::isfinite(spec.join_half_width_s) ||
        !(spec.join_half_width_s > 0.0)) {
      return fail(str_format("query %u: half-width must be > 0, got %g",
                             spec.id, spec.join_half_width_s));
    }
  }
  return common::Status::ok();
}

common::Result<std::vector<QuerySpec>> parse_queries(
    const std::string& text, const SystemConfig& base) {
  if (text.empty()) return base.queries;
  const QuerySpec defaults =
      base.queries.empty() ? QuerySpec{} : base.queries.front();
  std::vector<QuerySpec> specs;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t end = std::min(text.find(';', pos), text.size());
    std::string item = text.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) {
      return common::Status(common::ErrorCode::kInvalidArgument,
                            "empty query spec in --queries");
    }
    QuerySpec spec = defaults;
    spec.id = static_cast<std::uint32_t>(specs.size());
    // POLICY[:throttle[:half_width_s]]
    const std::size_t c1 = item.find(':');
    const std::string policy_name = item.substr(0, c1);
    try {
      spec.policy = policy_from_string(policy_name);
    } catch (const std::invalid_argument&) {
      return common::Status(
          common::ErrorCode::kInvalidArgument,
          "unknown policy '" + policy_name + "' in --queries (expected one of "
          + policy_names_csv() + ")");
    }
    try {
      if (c1 != std::string::npos) {
        const std::size_t c2 = item.find(':', c1 + 1);
        const std::string throttle_text =
            item.substr(c1 + 1, c2 == std::string::npos ? std::string::npos
                                                        : c2 - c1 - 1);
        if (!throttle_text.empty()) spec.throttle = std::stod(throttle_text);
        if (c2 != std::string::npos) {
          const std::string width_text = item.substr(c2 + 1);
          if (!width_text.empty()) {
            spec.join_half_width_s = std::stod(width_text);
          }
        }
      }
    } catch (const std::exception&) {
      return common::Status(common::ErrorCode::kInvalidArgument,
                            "malformed query spec '" + item +
                                "' in --queries (want POLICY[:throttle"
                                "[:half_width_s]])");
    }
    specs.push_back(spec);
    if (end == text.size()) break;
  }
  return specs;
}

void serialize_config(const SystemConfig& config, common::BufferWriter& out) {
  out.write_u32(config.nodes);
  out.write_u64(config.seed);
  serialize_wan(config.wan, out);
  out.write_string(config.workload);
  out.write_u32(config.regions);
  out.write_f64(config.locality);
  out.write_f64(config.noise);
  out.write_i64(config.domain);
  out.write_f64(config.arrivals_per_second);
  out.write_u64(config.tuples_per_node);
  out.write_u32(config.dft_window);
  out.write_f64(config.kappa);
  out.write_u32(config.summary_epoch_tuples);
  out.write_f64(config.summary_sync_epoch_s);
  out.write_i64(config.membership_tolerance);
  out.write_f64(config.max_backlog_s);
  out.write_u32(config.coalesce_frames);
  out.write_u32(config.coalesce_bytes);
  out.write_f64(config.coalesce_linger_s);
  out.write_u8(config.oracle_enabled ? 1 : 0);
  out.write_f64(config.online_target_eps);
  out.write_u32(config.summary_quant_bits);
  out.write_u32(config.sample_capacity);
  out.write_u32(config.sample_strata);
  // The query set, one entry at least (since protocol v7).
  out.write_u32(static_cast<std::uint32_t>(config.queries.size()));
  for (const auto& spec : config.queries) {
    out.write_u32(spec.id);
    out.write_string(to_string(spec.policy));
    out.write_f64(spec.throttle);
    out.write_f64(spec.join_half_width_s);
  }
}

common::Result<SystemConfig> deserialize_config(common::BufferReader& in) {
  SystemConfig config;
#define DSJOIN_READ(field, reader)          \
  do {                                      \
    auto r = in.reader();                   \
    if (!r) return r.status();              \
    config.field = std::move(r).value();    \
  } while (0)
  DSJOIN_READ(nodes, read_u32);
  DSJOIN_READ(seed, read_u64);
  {
    auto wan = deserialize_wan(in);
    if (!wan) return wan.status();
    config.wan = wan.value();
  }
  DSJOIN_READ(workload, read_string);
  DSJOIN_READ(regions, read_u32);
  DSJOIN_READ(locality, read_f64);
  DSJOIN_READ(noise, read_f64);
  DSJOIN_READ(domain, read_i64);
  DSJOIN_READ(arrivals_per_second, read_f64);
  DSJOIN_READ(tuples_per_node, read_u64);
  DSJOIN_READ(dft_window, read_u32);
  DSJOIN_READ(kappa, read_f64);
  DSJOIN_READ(summary_epoch_tuples, read_u32);
  DSJOIN_READ(summary_sync_epoch_s, read_f64);
  DSJOIN_READ(membership_tolerance, read_i64);
  DSJOIN_READ(max_backlog_s, read_f64);
  DSJOIN_READ(coalesce_frames, read_u32);
  DSJOIN_READ(coalesce_bytes, read_u32);
  DSJOIN_READ(coalesce_linger_s, read_f64);
  {
    auto oracle = in.read_u8();
    if (!oracle) return oracle.status();
    config.oracle_enabled = oracle.value() != 0;
  }
  DSJOIN_READ(online_target_eps, read_f64);
  DSJOIN_READ(summary_quant_bits, read_u32);
  DSJOIN_READ(sample_capacity, read_u32);
  DSJOIN_READ(sample_strata, read_u32);
  {
    auto count = in.read_u32();
    if (!count) return count.status();
    if (count.value() > kMaxQueries) {
      return common::Status(common::ErrorCode::kDataLoss,
                            "query count out of range");
    }
    config.queries.clear();
    config.queries.reserve(count.value());
    for (std::uint32_t i = 0; i < count.value(); ++i) {
      QuerySpec spec;
      auto id = in.read_u32();
      if (!id) return id.status();
      spec.id = id.value();
      auto policy = in.read_string();
      if (!policy) return policy.status();
      try {
        spec.policy = policy_from_string(policy.value());
      } catch (const std::invalid_argument&) {
        return common::Status(common::ErrorCode::kDataLoss,
                              "unknown query policy: " + policy.value());
      }
      auto throttle = in.read_f64();
      if (!throttle) return throttle.status();
      spec.throttle = throttle.value();
      auto width = in.read_f64();
      if (!width) return width.status();
      spec.join_half_width_s = width.value();
      config.queries.push_back(spec);
    }
  }
#undef DSJOIN_READ
  // The one validity gate (the query count above only bounds the reserve
  // before it runs): a config that decodes but fails validation is
  // corrupt from the wire's view.
  if (auto valid = validate_config(config); !valid.is_ok()) {
    return common::Status(common::ErrorCode::kDataLoss, valid.message());
  }
  return config;
}

}  // namespace dsjoin::core
