// Ingestion cost of every hot-path operator (sliding DFT, AGMS sketch,
// counting Bloom filter, the join window), plus DFTT's summary reads and
// result accounting.
//
// Each row reports one number, the ns per item of the production lane: the
// call the node makes, at the SIMD level the host dispatches. Two kinds of
// row also report the one ratio that measures something there:
//   batch   the summary operators (sliding_dft, agms, counting_bloom) have
//           a batch call and a tuple-at-a-time reference; batch_speedup is
//           reference ns / batch ns
//   kernel  the rows that reach a hand-written simd:: kernel (DESIGN.md
//           section 13): the TupleStore probe (the match-collect scan) and
//           the DFT family's summary reads, one band-limited inverse
//           transform, one reconstruction-cache rebuild and one lag search
//           (the butterflies, plus the rounding in the rebuild);
//           kernel_speedup is the row's ns with dispatch forced to scalar /
//           its ns at the dispatched level (identical bits by construction)
// Every other row times point calls with no second lane: the TupleStore
// insert/evict path, DFTT's membership estimate against a built cache,
// the simulator's event queue (one frame delivery scheduled and run at a
// deep heap) and result accounting (a node's collector taking reports and
// handing over its sorted pair list, and the merge of four nodes' lists
// into the run's pair set). Results go to stdout as an aligned table and
// to BENCH_hotpath.json (one entry per operator per config) so later
// changes have a machine-readable perf trajectory.
//
// Flags:
//   --quick      fewer configs, shorter timing windows (CI smoke)
//   --check      exit 1 if a batch row's batch_speedup or a kernel row's
//                kernel_speedup is below 0.9 (regression guard, not an
//                absolute-speed gate)
//   --out=PATH   JSON output path (default BENCH_hotpath.json)
#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench_util.hpp"
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/common/simd.hpp"
#include "dsjoin/core/experiment.hpp"
#include "dsjoin/core/metrics.hpp"
#include "dsjoin/core/summary_state.hpp"
#include "dsjoin/dsp/compression.hpp"
#include "dsjoin/dsp/fft.hpp"
#include "dsjoin/dsp/sliding_dft.hpp"
#include "dsjoin/dsp/spectrum.hpp"
#include "dsjoin/net/event_queue.hpp"
#include "dsjoin/sketch/agms.hpp"
#include "dsjoin/sketch/bloom.hpp"
#include "dsjoin/stream/tuple.hpp"
#include "dsjoin/stream/window.hpp"

namespace {

using namespace dsjoin;

// Matches SystemConfig::summary_epoch_tuples — the batch size the simulator
// driver actually forms between summary refreshes.
constexpr std::size_t kBatchSize = 256;

// What a row's second lane is, if it has one.
enum class Ratio {
  kNone,    // point calls only
  kBatch,   // reference_ns: the tuple-at-a-time path
  kKernel,  // reference_ns: the same calls with dispatch forced to scalar
};

struct Entry {
  std::string op;      // operator name
  std::string config;  // human-readable config, e.g. "W=2048 K=32"
  double ns = 0.0;     // the production lane at the dispatched level
  Ratio ratio = Ratio::kNone;
  double reference_ns = 0.0;
  std::size_t batch_size = kBatchSize;

  /// reference / production; 0 for rows without a second lane.
  double speedup() const {
    return ratio != Ratio::kNone && ns > 0.0 ? reference_ns / ns : 0.0;
  }
};

/// Runs fn() (which processes `items` items per call) repeatedly for at
/// least `min_time_s`, three repetitions, and returns the best ns/item.
template <typename F>
double measure_ns_per_item(std::size_t items, double min_time_s, const F& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warmup
  double best = 1e300;
  for (int rep = 0; rep < 3; ++rep) {
    std::size_t calls = 0;
    const auto start = clock::now();
    double elapsed = 0.0;
    do {
      fn();
      ++calls;
      elapsed = std::chrono::duration<double>(clock::now() - start).count();
    } while (elapsed < min_time_s);
    const double ns =
        elapsed * 1e9 / (static_cast<double>(calls) * static_cast<double>(items));
    best = std::min(best, ns);
  }
  return best;
}

/// Fills a kernel row's two lanes: fn() timed with dispatch forced to
/// scalar (the reference), then at the dispatched level.
template <typename F>
void measure_kernel_row(Entry& e, std::size_t items, double min_time_s,
                        const F& fn) {
  e.ratio = Ratio::kKernel;
  common::simd::force_level(common::simd::Level::kScalar);
  e.reference_ns = measure_ns_per_item(items, min_time_s, fn);
  common::simd::reset_level();
  e.ns = measure_ns_per_item(items, min_time_s, fn);
}

std::vector<double> random_values(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<double> out(n);
  for (auto& v : out) v = rng.next_double_in(-1000.0, 1000.0);
  return out;
}

std::vector<std::uint64_t> random_keys(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<std::uint64_t> out(n);
  for (auto& v : out) v = rng.next() % 100000;
  return out;
}

std::vector<stream::Tuple> random_tuples(std::size_t n, std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  std::vector<stream::Tuple> out(n);
  double ts = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    out[i].id = i + 1;
    out[i].key = static_cast<std::int64_t>(rng.next() % 100000);
    ts += 0.001;
    out[i].timestamp = ts;
    out[i].origin = 0;
    out[i].side = stream::StreamSide::kR;
  }
  return out;
}

Entry bench_sliding_dft(std::size_t window, std::size_t retained,
                        double min_time_s) {
  Entry e;
  e.op = "sliding_dft";
  e.config = "W=" + std::to_string(window) + " K=" + std::to_string(retained);
  const auto values = random_values(4 * kBatchSize, 11);

  e.ratio = Ratio::kBatch;
  dsp::SlidingDft scalar(window, retained);
  e.reference_ns = measure_ns_per_item(values.size(), min_time_s, [&] {
    for (double v : values) scalar.push(v);
  });

  dsp::SlidingDft batch(window, retained);
  e.ns = measure_ns_per_item(values.size(), min_time_s, [&] {
    for (std::size_t base = 0; base < values.size(); base += kBatchSize) {
      batch.push_batch(std::span<const double>(values).subspan(base, kBatchSize));
    }
  });
  return e;
}

Entry bench_agms(std::size_t budget_counters, double min_time_s) {
  Entry e;
  const auto shape = sketch::AgmsShape::for_budget(budget_counters);
  e.op = "agms";
  e.config = "s0=" + std::to_string(shape.s0) + " s1=" + std::to_string(shape.s1);
  const auto keys = random_keys(4 * kBatchSize, 12);

  e.ratio = Ratio::kBatch;
  sketch::AgmsSketch scalar(shape, 42);
  e.reference_ns = measure_ns_per_item(keys.size(), min_time_s, [&] {
    for (std::uint64_t k : keys) scalar.update(k, +1);
  });

  sketch::AgmsSketch batch(shape, 42);
  e.ns = measure_ns_per_item(keys.size(), min_time_s, [&] {
    for (std::size_t base = 0; base < keys.size(); base += kBatchSize) {
      batch.update_batch(
          std::span<const std::uint64_t>(keys).subspan(base, kBatchSize), +1);
    }
  });
  return e;
}

Entry bench_counting_bloom(std::size_t counters, std::size_t expected_keys,
                           double min_time_s) {
  Entry e;
  const auto hashes = sketch::optimal_hash_count(counters, expected_keys);
  e.op = "counting_bloom";
  e.config = "m=" + std::to_string(counters) + " k=" + std::to_string(hashes);
  const auto keys = random_keys(4 * kBatchSize, 14);

  // Insert + erase of the same keys per round keeps counter state bounded,
  // so both paths measure the steady-state branch pattern.
  e.ratio = Ratio::kBatch;
  sketch::CountingBloomFilter scalar(counters, hashes, 42);
  e.reference_ns = measure_ns_per_item(2 * keys.size(), min_time_s, [&] {
    for (std::uint64_t k : keys) scalar.insert(k);
    for (std::uint64_t k : keys) scalar.erase(k);
  });

  // apply_batch is the BLOOM engine's call: one +1/-1 delta per key.
  const std::vector<std::int32_t> inserts(kBatchSize, +1);
  const std::vector<std::int32_t> erases(kBatchSize, -1);
  sketch::CountingBloomFilter batch(counters, hashes, 42);
  e.ns = measure_ns_per_item(2 * keys.size(), min_time_s, [&] {
    for (std::size_t base = 0; base < keys.size(); base += kBatchSize) {
      batch.apply_batch(
          std::span<const std::uint64_t>(keys).subspan(base, kBatchSize),
          inserts);
    }
    for (std::size_t base = 0; base < keys.size(); base += kBatchSize) {
      batch.apply_batch(
          std::span<const std::uint64_t>(keys).subspan(base, kBatchSize),
          erases);
    }
  });
  return e;
}

// The TupleStore has no batch API: the node inserts, evicts and probes one
// tuple at a time. Its rows time exactly those calls.
Entry bench_tuple_store(double min_time_s) {
  Entry e;
  e.op = "tuple_store";
  e.config = "insert+evict";
  const auto tuples = random_tuples(4 * kBatchSize, 16);
  const double horizon = tuples.back().timestamp + 1.0;

  stream::TupleStore store;
  e.ns = measure_ns_per_item(tuples.size(), min_time_s, [&] {
    for (const auto& t : tuples) store.insert(t);
    store.evict_before(horizon);
  });
  return e;
}

// Fig. 11 scale: a retention window's worth of stored tuples (Zipf-ish key
// reuse via `% 512`) and an arrival slice of probes against it.
struct ProbeFixture {
  stream::TupleStore store;
  std::vector<stream::Tuple> probes;
  double half_width = 0.5;
};

ProbeFixture make_probe_fixture(std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  ProbeFixture f;
  double ts = 0.0;
  for (std::size_t i = 0; i < 4096; ++i) {
    stream::Tuple t;
    t.id = i + 1;
    t.key = static_cast<std::int64_t>(rng.next() % 512);
    ts += 0.001;
    t.timestamp = ts;
    t.origin = 0;
    t.side = stream::StreamSide::kR;
    f.store.insert(t);
  }
  f.probes.resize(4 * kBatchSize);
  for (std::size_t i = 0; i < f.probes.size(); ++i) {
    f.probes[i].id = 100000 + i;
    f.probes[i].key = static_cast<std::int64_t>(rng.next() % 512);
    f.probes[i].timestamp = rng.next_double_in(0.0, ts);
    f.probes[i].side = stream::StreamSide::kS;
  }
  return f;
}

// collect_matches per probe into a reused vector: the node's call, which
// its local joins and result shipping run on. Timed once with dispatch
// forced to scalar (the reference) and once at the dispatched level.
Entry bench_tuple_store_collect(double min_time_s) {
  Entry e;
  e.op = "tuple_store";
  e.config = "probe collect";
  const ProbeFixture f = make_probe_fixture(18);

  volatile std::uint64_t sink = 0;
  std::vector<stream::StoredTuple> matches;
  const auto probe_all = [&] {
    std::uint64_t total = 0;
    for (const auto& p : f.probes) {
      matches.clear();
      f.store.collect_matches(p.key, p.timestamp, f.half_width, matches);
      for (const auto& m : matches) total += m.id;
    }
    sink = sink + total;
  };
  measure_kernel_row(e, f.probes.size(), min_time_s, probe_all);
  return e;
}

// DFTT's summary reads at the default geometry: W = 2048 windows of a
// drifting integer stream, summarized by their K = W / kappa = 8 lowest
// coefficients. These rows time point calls; all but the estimate are
// kernel rows.
constexpr std::uint32_t kDfttWindow = 2048;
constexpr std::uint32_t kDfttRetained = 8;

std::vector<std::vector<dsp::Complex>> dftt_spectra(std::size_t count,
                                                    std::uint64_t seed) {
  common::Xoshiro256 rng(seed);
  const dsp::Fft& fft = dsp::Fft::plan(kDfttWindow);
  std::vector<std::vector<dsp::Complex>> out;
  double level = 5000.0;
  std::vector<double> window(kDfttWindow);
  for (std::size_t i = 0; i < count; ++i) {
    for (auto& v : window) {
      level += rng.next_double_in(-4.0, 4.0);
      v = std::round(level + rng.next_double_in(-50.0, 50.0));
    }
    const auto full = fft.forward_real(window);
    out.emplace_back(full.begin(), full.begin() + kDfttRetained);
  }
  return out;
}

std::vector<dsp::CoeffDelta> as_deltas(const std::vector<dsp::Complex>& spectrum) {
  std::vector<dsp::CoeffDelta> deltas;
  for (std::uint32_t k = 0; k < spectrum.size(); ++k) {
    deltas.push_back(dsp::CoeffDelta{k, spectrum[k]});
  }
  return deltas;
}

// One inverse transform of a K = 8 spectrum with its conjugate mirrors, as
// dsp::reconstruct runs it (Fft::inverse_band); one item is one transform.
Entry bench_fft_band_inverse(double min_time_s) {
  Entry e;
  e.op = "fft";
  e.config = "inverse W=2048 band K=8";
  e.batch_size = 1;
  const auto spectrum = dftt_spectra(1, 19).front();
  std::vector<dsp::Complex> out(kDfttWindow);
  volatile double sink = 0.0;
  measure_kernel_row(e, 1, min_time_s, [&] {
    dsp::Fft::plan(kDfttWindow).inverse_band(spectrum, out);
    sink = sink + out[1].real();
  });
  return e;
}

// A CoeffStore cache rebuild: apply one window's 8 deltas, then one
// estimate, which reconstructs and indexes the window; one item is one
// rebuild.
Entry bench_coeff_store_rebuild(double min_time_s) {
  Entry e;
  e.op = "coeff_store";
  e.config = "rebuild W=2048 K=8";
  e.batch_size = 1;
  std::vector<std::vector<dsp::CoeffDelta>> updates;
  std::vector<std::int64_t> keys;
  for (const auto& spectrum : dftt_spectra(16, 20)) {
    updates.push_back(as_deltas(spectrum));
    keys.push_back(std::llround(spectrum[0].real() / kDfttWindow));
  }

  core::CoeffStore store(kDfttWindow, kDfttRetained);
  volatile std::uint64_t sink = 0;
  measure_kernel_row(e, updates.size(), min_time_s, [&] {
    std::uint64_t total = 0;
    for (std::size_t i = 0; i < updates.size(); ++i) {
      store.apply(updates[i]);
      total += store.estimate_count(keys[i], 32);
    }
    sink = sink + total;
  });
  return e;
}

// Membership estimates against a built cache at DFTT's default tolerance,
// for keys spread over the window's value range; one item is one estimate.
Entry bench_coeff_store_estimate(double min_time_s) {
  Entry e;
  e.op = "coeff_store";
  e.config = "estimate tol=32";
  e.batch_size = 1;
  const auto spectrum = dftt_spectra(1, 21).front();
  core::CoeffStore store(kDfttWindow, kDfttRetained);
  store.apply(as_deltas(spectrum));
  std::vector<std::int64_t> values;
  dsp::reconstruct_rounded(dsp::CompressedSpectrum{kDfttWindow, spectrum},
                           values);
  const auto [lo, hi] = std::minmax_element(values.begin(), values.end());
  common::Xoshiro256 rng(22);
  std::vector<std::int64_t> keys(1024);
  for (auto& key : keys) {
    key = *lo - 64 +
          static_cast<std::int64_t>(
              rng.next_below(static_cast<std::uint64_t>(*hi - *lo) + 129));
  }

  volatile std::uint64_t sink = 0;
  e.ns = measure_ns_per_item(keys.size(), min_time_s, [&] {
    std::uint64_t total = 0;
    for (std::int64_t key : keys) total += store.estimate_count(key, 32);
    sink = sink + total;
  });
  return e;
}

// The DFT family's flow coefficient: one lag-maximized correlation of two
// K = 8 spectra over W = 2048 (an inverse transform and a peak search);
// one item is one search.
Entry bench_lag_max_correlation(double min_time_s) {
  Entry e;
  e.op = "lag_max_correlation";
  e.config = "W=2048 K=8";
  e.batch_size = 1;
  const auto spectra = dftt_spectra(2, 23);
  volatile double sink = 0.0;
  measure_kernel_row(e, 1, min_time_s, [&] {
    sink = sink + dsp::lag_max_correlation(spectra[0], spectra[1], kDfttWindow).rho;
  });
  return e;
}

// The simulator's event queue at the depth sim-mq8's 90 kbps backlog
// keeps: 16,384 frame deliveries pending, then per item one delivery
// scheduled at a random later time and the earliest event run.
Entry bench_event_queue(double min_time_s) {
  constexpr std::size_t kPending = 16384;
  Entry e;
  e.op = "event_queue";
  e.config = "deliver 16384 pending";
  e.batch_size = 1;
  net::EventQueue queue;
  std::size_t delivered = 0;
  const net::DeliveryHandler handler = [&delivered](net::Frame&&) {
    ++delivered;
  };
  common::Xoshiro256 rng(24);
  for (std::size_t i = 0; i < kPending; ++i) {
    queue.schedule_delivery_at(rng.next_double_in(0.0, 1.0), &handler,
                               net::Frame{});
  }
  constexpr std::size_t kItems = 1024;
  e.ns = measure_ns_per_item(kItems, min_time_s, [&] {
    for (std::size_t i = 0; i < kItems; ++i) {
      queue.schedule_delivery_at(queue.now() + rng.next_double_in(0.0, 1.0),
                                 &handler, net::Frame{});
      queue.run_one();
    }
  });
  return e;
}

// A node's collector over one run: 60,000 reports, 10% of them repeats of
// an earlier pair, then the sorted snapshot NodeHost::report ships; one
// item is one report.
Entry bench_metrics_record(double min_time_s) {
  Entry e;
  e.op = "metrics";
  e.config = "record+pairs";
  e.batch_size = 1;
  struct Report {
    stream::ResultPair pair;
    net::NodeId node;
    double now;
  };
  common::Xoshiro256 rng(30);
  std::vector<Report> reports;
  reports.reserve(60'000);
  for (std::size_t i = 0; i < 60'000; ++i) {
    Report report{{rng.next_below(40'000) + 1, rng.next_below(40'000) + 1},
                  static_cast<net::NodeId>(rng.next_below(4)),
                  static_cast<double>(i) * 1e-3};
    if (i > 0 && rng.next_below(10) == 0) {
      report.pair = reports[rng.next_below(i)].pair;
    }
    reports.push_back(report);
  }

  volatile std::size_t sink = 0;
  e.ns = measure_ns_per_item(reports.size(), min_time_s, [&] {
    core::MetricsCollector collector;
    collector.set_node_count(4);
    for (const Report& r : reports) {
      collector.record_pair(r.pair, r.node, r.now);
    }
    sink = sink + collector.pairs().size();
  });
  return e;
}

// aggregate_node_reports over four single-query node reports, shaped as
// NodeHost::report makes them: 100,000 distinct pairs, each held by one
// node and a quarter of them by a second node too (a pair found at both
// owners); one item is one pair of a node's list.
Entry bench_metrics_aggregate(double min_time_s) {
  Entry e;
  e.op = "metrics";
  e.config = "aggregate 4 nodes";
  e.batch_size = 1;
  constexpr std::size_t kNodes = 4;
  common::Xoshiro256 rng(31);
  std::vector<core::MetricsCollector> collectors(kNodes);
  for (std::size_t i = 0; i < 100'000; ++i) {
    const stream::ResultPair pair{rng.next_below(40'000) + 1,
                                  rng.next_below(40'000) + 1};
    const std::size_t owner = rng.next_below(kNodes);
    collectors[owner].record_pair(pair, 0, 0.0);
    if (rng.next_below(4) == 0) {
      collectors[(owner + 1 + rng.next_below(kNodes - 1)) % kNodes]
          .record_pair(pair, 0, 0.0);
    }
  }
  std::vector<core::NodeReport> reports(kNodes);
  std::size_t items = 0;
  for (std::size_t n = 0; n < kNodes; ++n) {
    reports[n].node_id = static_cast<net::NodeId>(n);
    reports[n].queries.emplace_back().pairs = collectors[n].pairs();
    items += reports[n].queries.front().pairs.size();
  }

  volatile std::size_t sink = 0;
  e.ns = measure_ns_per_item(items, min_time_s, [&] {
    core::ExperimentResult result;
    core::aggregate_node_reports(reports, &result);
    sink = sink + result.pairs.size();
  });
  return e;
}

const char* ratio_field(Ratio ratio) {
  switch (ratio) {
    case Ratio::kBatch: return "batch_speedup";
    case Ratio::kKernel: return "kernel_speedup";
    case Ratio::kNone: break;
  }
  return nullptr;
}

void write_json(const std::vector<Entry>& entries, const std::string& path) {
  std::ofstream out(path);
  // Kernel micro-bench: no engine backplane behind these numbers. The meta
  // block's "simd" names the dispatched level every row ran at.
  out << "{\n  \"meta\": " << bench::json_meta("none")
      << ",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    char ratio[64] = "";
    if (const char* field = ratio_field(e.ratio)) {
      std::snprintf(ratio, sizeof ratio, ", \"%s\": %.3f", field, e.speedup());
    }
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "  {\"operator\": \"%s\", \"config\": \"%s\", "
                  "\"ns_per_item\": %.2f%s, \"batch_size\": %zu}%s\n",
                  e.op.c_str(), e.config.c_str(), e.ns, ratio, e.batch_size,
                  i + 1 < entries.size() ? "," : "");
    out << buf;
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool check = false;
  std::string out_path = "BENCH_hotpath.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", argv[i]);
      std::fprintf(stderr, "usage: bench_hotpath [--quick] [--check] [--out=PATH]\n");
      return 2;
    }
  }

  const double min_time_s = quick ? 0.05 : 0.2;
  std::printf(
      "Hot-path ingestion: ns per item of the production lane (dispatched "
      "level: %s);\nbatch = tuple-at-a-time / batch call, kernel = forced "
      "scalar / dispatched.\n",
      common::simd::level_name(common::simd::detected_level()));
  std::vector<Entry> entries;

  if (quick) {
    entries.push_back(bench_sliding_dft(2048, 32, min_time_s));
    entries.push_back(bench_agms(80, min_time_s));
    entries.push_back(bench_counting_bloom(16384, 2048, min_time_s));
    entries.push_back(bench_tuple_store(min_time_s));
    entries.push_back(bench_tuple_store_collect(min_time_s));
    entries.push_back(bench_fft_band_inverse(min_time_s));
    entries.push_back(bench_coeff_store_rebuild(min_time_s));
    entries.push_back(bench_coeff_store_estimate(min_time_s));
    entries.push_back(bench_lag_max_correlation(min_time_s));
    entries.push_back(bench_event_queue(min_time_s));
    entries.push_back(bench_metrics_record(min_time_s));
    entries.push_back(bench_metrics_aggregate(min_time_s));
  } else {
    entries.push_back(bench_sliding_dft(2048, 8, min_time_s));
    entries.push_back(bench_sliding_dft(2048, 32, min_time_s));
    entries.push_back(bench_sliding_dft(2048, 128, min_time_s));
    entries.push_back(bench_sliding_dft(8192, 256, min_time_s));
    entries.push_back(bench_agms(20, min_time_s));
    entries.push_back(bench_agms(80, min_time_s));
    entries.push_back(bench_agms(320, min_time_s));
    entries.push_back(bench_counting_bloom(16384, 2048, min_time_s));
    entries.push_back(bench_counting_bloom(65536, 2048, min_time_s));
    entries.push_back(bench_tuple_store(min_time_s));
    entries.push_back(bench_tuple_store_collect(min_time_s));
    entries.push_back(bench_fft_band_inverse(min_time_s));
    entries.push_back(bench_coeff_store_rebuild(min_time_s));
    entries.push_back(bench_coeff_store_estimate(min_time_s));
    entries.push_back(bench_lag_max_correlation(min_time_s));
    entries.push_back(bench_event_queue(min_time_s));
    entries.push_back(bench_metrics_record(min_time_s));
    entries.push_back(bench_metrics_aggregate(min_time_s));
  }

  std::printf("%-20s %-24s %12s  %s\n", "operator", "config", "ns/item",
              "speedup");
  bool regression = false;
  for (const Entry& e : entries) {
    std::printf("%-20s %-24s %12.2f", e.op.c_str(), e.config.c_str(), e.ns);
    if (e.ratio != Ratio::kNone) {
      std::printf("  %.2fx %s", e.speedup(),
                  e.ratio == Ratio::kBatch ? "batch" : "kernel");
      if (e.speedup() < 0.9) regression = true;
    }
    std::printf("\n");
  }
  write_json(entries, out_path);
  std::printf("\nwrote %s (%zu entries, batch size %zu)\n", out_path.c_str(),
              entries.size(), kBatchSize);

  if (check && regression) {
    std::fprintf(stderr,
                 "FAIL: a batch call >10%% slower than its tuple-at-a-time "
                 "reference, or a kernel row >10%% slower than forced "
                 "scalar\n");
    return 1;
  }
  return 0;
}
