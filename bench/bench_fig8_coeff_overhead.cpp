// Figure 8: DFT coefficient updates as a percentage of the net data
// transmitted, kappa = 256, Zipfian workload, as the cluster grows.
//
// Coefficient deltas ride piggybacked on tuple frames (plus occasional
// standalone summary frames to silent peers); the ratio reported is
// (piggybacked summary bytes + standalone summary bytes) / total bytes.
//
// A second sweep compares the quantized coefficient wire format (wire v4,
// --quant-bits) against the f64 baseline at the same settings: end-to-end
// summary bytes, per-coefficient codec payload, and the epsilon drift the
// lossy encoding introduces. Results go to BENCH_quant.json.
#include <fstream>

#include "bench_util.hpp"
#include "dsjoin/core/summary_state.hpp"

using namespace dsjoin;

namespace {

/// Codec-level payload per coefficient delta at Figure 8 geometry: one
/// sub-block of `count` deltas, bytes divided by count (header amortized).
double codec_bytes_per_coeff(unsigned bits, std::size_t count) {
  std::vector<dsp::CoeffDelta> deltas;
  for (std::size_t k = 0; k < count; ++k) {
    deltas.push_back(dsp::CoeffDelta{
        static_cast<std::uint32_t>(k),
        dsp::Complex(1000.0 + static_cast<double>(k), -3.5)});
  }
  common::BufferWriter w;
  if (bits == 0) {
    core::summary_codec::encode_dft(w, stream::StreamSide::kR, 2048, 8, deltas);
  } else {
    std::vector<dsp::Complex> values;
    for (const auto& d : deltas) values.push_back(d.value);
    core::summary_codec::encode_dft_quant(w, stream::StreamSide::kR, 2048, 8,
                                          deltas, bits,
                                          dsp::quant_scale(values));
  }
  return static_cast<double>(std::move(w).take().size()) /
         static_cast<double>(count);
}

struct QuantCell {
  std::uint32_t nodes;
  std::uint32_t quant_bits;
  std::uint64_t summary_bytes;  ///< piggyback + standalone summary frames
  double summary_pct;
  double epsilon;
  std::uint64_t pairs;
};

}  // namespace

int main(int argc, char** argv) {
  common::CliFlags flags("Figure 8 reproduction: summary byte overhead vs nodes");
  flags.add_int("tuples", 2000, "tuples per node per side");
  flags.add_double("throttle", 0.5, "forwarding budget knob");
  bench::add_workers_flag(flags);
  bench::add_backend_flag(flags);
  bench::add_coalesce_flags(flags);
  bench::add_quant_flag(flags);
  if (auto s = flags.parse(argc, argv); !s) {
    return s.code() == common::ErrorCode::kFailedPrecondition ? 0 : 1;
  }
  const auto backend = bench::parse_backend_flag(flags);

  common::TablePrinter table(
      "Figure 8: DFT coefficient bytes as % of net data (kappa=256, ZIPF)",
      {"nodes", "summary_pct", "piggyback_bytes", "summary_frames",
       "total_bytes"});
  for (std::uint32_t n : {2u, 4u, 6u, 8u, 12u, 16u, 20u}) {
    auto config = bench::figure_config(
        "ZIPF", n, static_cast<std::uint64_t>(flags.get_int("tuples")));
    config.queries.front().policy = core::PolicyKind::kDft;
    config.queries.front().throttle = flags.get_double("throttle");
    bench::apply_workers_flag(flags, config);
    bench::apply_coalesce_flags(flags, config);
    bench::apply_quant_flag(flags, config);
    const auto result = bench::run_with_backend(backend, config);
    table.add(n, 100.0 * result.summary_byte_fraction,
              result.traffic.piggyback_bytes,
              result.traffic.frames(net::FrameKind::kSummary),
              result.traffic.total_bytes());
  }
  bench::emit(table);

  std::puts("Shape check (paper): a small single-digit percentage (1.38-2.84%");
  std::puts("on their testbed) that does not grow with the cluster size.");

  // ---------------------------------------------------------------------
  // Quantized vs f64 coefficient encoding at the same Figure 8 settings.
  common::TablePrinter quant_table(
      "Quantized coefficient wire format vs f64 (DFT policy, ZIPF)",
      {"nodes", "quant_bits", "summary_bytes", "reduction", "epsilon",
       "pairs"});
  std::vector<QuantCell> cells;
  for (std::uint32_t n : {4u, 8u}) {
    std::uint64_t f64_bytes = 0;
    for (std::uint32_t bits : {0u, 16u, 8u}) {
      auto config = bench::figure_config(
          "ZIPF", n, static_cast<std::uint64_t>(flags.get_int("tuples")));
      config.queries.front().policy = core::PolicyKind::kDft;
      config.queries.front().throttle = flags.get_double("throttle");
      config.summary_quant_bits = bits;
      bench::apply_workers_flag(flags, config);
      const auto result = bench::run_with_backend(backend, config);
      const std::uint64_t summary_bytes =
          result.traffic.piggyback_bytes +
          result.traffic.bytes(net::FrameKind::kSummary);
      if (bits == 0) f64_bytes = summary_bytes;
      cells.push_back(QuantCell{n, bits, summary_bytes,
                                100.0 * result.summary_byte_fraction,
                                result.epsilon, result.reported_pairs});
      quant_table.add(n, bits, summary_bytes,
                      summary_bytes > 0 ? static_cast<double>(f64_bytes) /
                                              static_cast<double>(summary_bytes)
                                        : 0.0,
                      result.epsilon, result.reported_pairs);
    }
  }
  bench::emit(quant_table);

  std::puts("End-to-end summary bytes include per-frame stamps and per-block");
  std::puts("headers; the codec payload itself shrinks 20 -> 6 bytes per");
  std::puts("coefficient at int16 (3.33x) and 20 -> 4 at int8 (5x).");

  std::ofstream out("BENCH_quant.json");
  char buf[256];
  out << "{\n  \"meta\": " << bench::json_meta(core::to_string(backend))
      << ",\n";
  // Pure per-coefficient payload (index + components, no block header):
  // u32 + 2 f64 = 20 bytes at f64; u16 + 2 mantissas = 6 (int16) / 4 (int8).
  out << "  \"payload_bytes_per_coeff\": "
         "{\"f64\": 20, \"int16\": 6, \"int8\": 4},\n"
         "  \"payload_reduction\": {\"int16\": 3.33, \"int8\": 5.0},\n";
  // Header-amortized sub-block bytes per coefficient at a full K=8 flush
  // (the f64 scale and width byte dilute small blocks; see DESIGN.md §13).
  const double f64_coeff = codec_bytes_per_coeff(0, 8);
  std::snprintf(buf, sizeof buf,
                "  \"block_bytes_per_coeff_k8\": "
                "{\"f64\": %.2f, \"int16\": %.2f, \"int8\": %.2f},\n",
                f64_coeff, codec_bytes_per_coeff(16, 8),
                codec_bytes_per_coeff(8, 8));
  out << buf;
  std::snprintf(buf, sizeof buf,
                "  \"block_reduction_k8\": {\"int16\": %.2f, \"int8\": %.2f},\n",
                f64_coeff / codec_bytes_per_coeff(16, 8),
                f64_coeff / codec_bytes_per_coeff(8, 8));
  out << buf;
  out << "  \"entries\": [\n";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto& c = cells[i];
    std::snprintf(buf, sizeof buf,
                  "    {\"nodes\": %u, \"quant_bits\": %u, "
                  "\"summary_bytes\": %llu, \"summary_pct\": %.3f, "
                  "\"epsilon\": %.5f, \"pairs\": %llu}%s\n",
                  c.nodes, c.quant_bits,
                  static_cast<unsigned long long>(c.summary_bytes),
                  c.summary_pct, c.epsilon,
                  static_cast<unsigned long long>(c.pairs),
                  i + 1 < cells.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
  std::puts("wrote BENCH_quant.json");
  return 0;
}
