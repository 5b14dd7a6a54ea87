// Scalar vs. batch vs. SIMD ingestion cost for every hot-path operator
// (sliding DFT, AGMS / Fast-AGMS sketches, counting Bloom filter, window
// stores).
//
// Each operator runs the same value/key stream through three paths:
//   scalar  the tuple-at-a-time reference path
//   batch   the batch API with the simd:: kernels forced to their scalar
//           level — i.e. the PR-2 batch path, kept comparable across PRs
//   simd    the batch API at the best kernel level the host dispatches
//           (avx512 / avx2 / neon; identical bits by construction)
// and reports ns per item plus the scalar/batch and batch/simd speedups.
// Results go to stdout as an aligned table and to BENCH_hotpath.json (one
// entry per operator per config) so later PRs have a machine-readable perf
// trajectory. Operators without dedicated kernels (counting_bloom,
// count_window, tuple_store insert+evict) run the same code in both batch
// and simd columns. The TupleStore has no batch API, so its rows time the
// point calls production makes and repeat the scalar measurement in the
// batch column; the probe rows' simd column dispatches the §16 match-scan
// kernels.
//
// Flags:
//   --quick      fewer configs, shorter timing windows (CI smoke)
//   --check      exit 1 if any operator's batch path is >10% slower than
//                scalar, or a kernel-backed operator's simd path is >10%
//                slower than batch (regression guard, not an absolute-speed
//                gate; operators without kernels time identical code in
//                both columns, so their simd ratio is noise and is not
//                gated)
//   --out=PATH   JSON output path (default BENCH_hotpath.json)
#include <algorithm>
#include <chrono>

#include "bench_util.hpp"
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/common/simd.hpp"
#include "dsjoin/dsp/sliding_dft.hpp"
#include "dsjoin/sketch/agms.hpp"
#include "dsjoin/sketch/bloom.hpp"
#include "dsjoin/stream/tuple.hpp"
#include "dsjoin/stream/window.hpp"

namespace {

using namespace dsjoin;

// Matches SystemConfig::summary_epoch_tuples — the batch size the simulator
// driver actually forms between summary refreshes.
constexpr std::size_t kBatchSize = 256;

struct Entry {
  std::string op;      // operator name
  std::string config;  // human-readable config, e.g. "W=2048 K=32"
  double scalar_ns = 0.0;
  double batch_ns = 0.0;  // batch API, kernels forced scalar (PR-2 path)
  double simd_ns = 0.0;   // batch API at the dispatched kernel level
  // Whether the operator has a dedicated simd:: kernel. When false the
  // batch and simd columns time identical code (counting Bloom stays on
  // the per-key path at every level — it is touch-bound, DESIGN.md §13),
  // so their ratio is pure measurement noise and --check must not gate it.
  bool has_kernel = false;
  std::size_t batch_size = kBatchSize;

  double speedup() const { return batch_ns > 0.0 ? scalar_ns / batch_ns : 0.0; }
  double simd_speedup() const { return simd_ns > 0.0 ? batch_ns / simd_ns : 0.0; }
};

/// Runs fn() (which processes `items` items per call) repeatedly for at
/// least `min_time_s`, three repetitions, and returns the best ns/item.
template <typename F>
double measure_ns_per_item(std::size_t items, double min_time_s, F&& fn) {
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

/// Measures one batch-path lambda twice: once with the kernels forced to
/// scalar (the `batch` column) and once at the default dispatched level
/// (the `simd` column). `make_fresh` re-creates operator state between the
/// two so neither measurement runs on the other's warmed allocations.
template <typename MakeFresh, typename Run>
void measure_batch_and_simd(Entry& e, std::size_t items, double min_time_s,
                            MakeFresh&& make_fresh, Run&& run) {
  make_fresh();
  common::simd::force_level(common::simd::Level::kScalar);
  e.batch_ns = measure_ns_per_item(items, min_time_s, run);
  common::simd::reset_level();
  make_fresh();
  e.simd_ns = measure_ns_per_item(items, min_time_s, run);
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
  e.has_kernel = true;
  e.config = "W=" + std::to_string(window) + " K=" + std::to_string(retained);
  const auto values = random_values(4 * kBatchSize, 11);

  dsp::SlidingDft scalar(window, retained);
  e.scalar_ns = measure_ns_per_item(values.size(), min_time_s, [&] {
    for (double v : values) scalar.push(v);
  });

  std::optional<dsp::SlidingDft> batch;
  measure_batch_and_simd(
      e, values.size(), min_time_s, [&] { batch.emplace(window, retained); },
      [&] {
        for (std::size_t base = 0; base < values.size(); base += kBatchSize) {
          batch->push_batch(
              std::span<const double>(values).subspan(base, kBatchSize));
        }
      });
  return e;
}

Entry bench_agms(std::size_t budget_counters, double min_time_s) {
  Entry e;
  const auto shape = sketch::AgmsShape::for_budget(budget_counters);
  e.op = "agms";
  e.has_kernel = true;
  e.config = "s0=" + std::to_string(shape.s0) + " s1=" + std::to_string(shape.s1);
  const auto keys = random_keys(4 * kBatchSize, 12);

  sketch::AgmsSketch scalar(shape, 42);
  e.scalar_ns = measure_ns_per_item(keys.size(), min_time_s, [&] {
    for (std::uint64_t k : keys) scalar.update(k, +1);
  });

  std::optional<sketch::AgmsSketch> batch;
  measure_batch_and_simd(
      e, keys.size(), min_time_s, [&] { batch.emplace(shape, 42); },
      [&] {
        for (std::size_t base = 0; base < keys.size(); base += kBatchSize) {
          batch->update_batch(
              std::span<const std::uint64_t>(keys).subspan(base, kBatchSize), +1);
        }
      });
  return e;
}

Entry bench_fast_agms(std::uint32_t rows, std::uint32_t buckets,
                      double min_time_s) {
  Entry e;
  e.op = "fast_agms";
  e.has_kernel = true;
  e.config =
      "rows=" + std::to_string(rows) + " buckets=" + std::to_string(buckets);
  const auto keys = random_keys(4 * kBatchSize, 13);

  sketch::FastAgmsSketch scalar(rows, buckets, 42);
  e.scalar_ns = measure_ns_per_item(keys.size(), min_time_s, [&] {
    for (std::uint64_t k : keys) scalar.update(k, +1);
  });

  std::optional<sketch::FastAgmsSketch> batch;
  measure_batch_and_simd(
      e, keys.size(), min_time_s, [&] { batch.emplace(rows, buckets, 42); },
      [&] {
        for (std::size_t base = 0; base < keys.size(); base += kBatchSize) {
          batch->update_batch(
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
  sketch::CountingBloomFilter scalar(counters, hashes, 42);
  e.scalar_ns = measure_ns_per_item(2 * keys.size(), min_time_s, [&] {
    for (std::uint64_t k : keys) scalar.insert(k);
    for (std::uint64_t k : keys) scalar.erase(k);
  });

  std::optional<sketch::CountingBloomFilter> batch;
  measure_batch_and_simd(
      e, 2 * keys.size(), min_time_s,
      [&] { batch.emplace(counters, hashes, 42); },
      [&] {
        for (std::size_t base = 0; base < keys.size(); base += kBatchSize) {
          batch->insert_batch(
              std::span<const std::uint64_t>(keys).subspan(base, kBatchSize));
        }
        for (std::size_t base = 0; base < keys.size(); base += kBatchSize) {
          batch->erase_batch(
              std::span<const std::uint64_t>(keys).subspan(base, kBatchSize));
        }
      });
  return e;
}

Entry bench_count_window(std::size_t capacity, double min_time_s) {
  Entry e;
  e.op = "count_window";
  e.config = "W=" + std::to_string(capacity);
  const auto tuples = random_tuples(4 * kBatchSize, 15);

  stream::CountWindow scalar(capacity);
  e.scalar_ns = measure_ns_per_item(tuples.size(), min_time_s, [&] {
    for (const auto& t : tuples) (void)scalar.insert(t);
  });

  std::optional<stream::CountWindow> batch;
  std::vector<stream::Tuple> evicted;
  measure_batch_and_simd(
      e, tuples.size(), min_time_s, [&] { batch.emplace(capacity); },
      [&] {
        for (std::size_t base = 0; base < tuples.size(); base += kBatchSize) {
          evicted.clear();
          batch->insert_batch(
              std::span<const stream::Tuple>(tuples).subspan(base, kBatchSize),
              evicted);
        }
      });
  return e;
}

// The TupleStore has no batch API: the node inserts, evicts and probes one
// tuple at a time. Its rows time exactly those calls. The loop runs once
// with the kernels forced scalar (reported in both the scalar and the batch
// column, so the scalar-vs-batch ratio is 1 by construction) and once at the
// dispatched level (the simd column).
template <typename MakeFresh, typename Run>
void measure_point_path(Entry& e, std::size_t items, double min_time_s,
                        MakeFresh&& make_fresh, Run&& run) {
  measure_batch_and_simd(e, items, min_time_s, make_fresh, run);
  e.scalar_ns = e.batch_ns;
}

Entry bench_tuple_store(double min_time_s) {
  Entry e;
  e.op = "tuple_store";
  e.config = "insert+evict";
  const auto tuples = random_tuples(4 * kBatchSize, 16);
  const double horizon = tuples.back().timestamp + 1.0;

  std::optional<stream::TupleStore> store;
  measure_point_path(
      e, tuples.size(), min_time_s, [&] { store.emplace(); },
      [&] {
        for (const auto& t : tuples) store->insert(t);
        store->evict_before(horizon);
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

// count_matches per probe: the exact-join oracle's call.
Entry bench_tuple_store_probe(double min_time_s) {
  Entry e;
  e.op = "tuple_store";
  e.config = "probe count";
  e.has_kernel = true;
  const ProbeFixture f = make_probe_fixture(17);

  volatile std::uint64_t sink = 0;
  measure_point_path(
      e, f.probes.size(), min_time_s, [] {},
      [&] {
        std::uint64_t total = 0;
        for (const auto& p : f.probes) {
          total += f.store.count_matches(p.key, p.timestamp, f.half_width);
        }
        sink = sink + total;
      });
  return e;
}

// collect_matches per probe into a reused vector: the node's call, which
// its local joins and result shipping run on.
Entry bench_tuple_store_collect(double min_time_s) {
  Entry e;
  e.op = "tuple_store";
  e.config = "probe collect";
  e.has_kernel = true;
  const ProbeFixture f = make_probe_fixture(18);

  volatile std::uint64_t sink = 0;
  std::vector<stream::StoredTuple> matches;
  measure_point_path(
      e, f.probes.size(), min_time_s, [] {},
      [&] {
        std::uint64_t total = 0;
        for (const auto& p : f.probes) {
          matches.clear();
          f.store.collect_matches(p.key, p.timestamp, f.half_width, matches);
          for (const auto& m : matches) total += m.id;
        }
        sink = sink + total;
      });
  return e;
}

void write_json(const std::vector<Entry>& entries, const std::string& path) {
  const char* level = common::simd::level_name(common::simd::detected_level());
  std::ofstream out(path);
  // Kernel micro-bench: no engine backplane behind these numbers.
  out << "{\n  \"meta\": " << bench::json_meta("none")
      << ",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "  {\"operator\": \"%s\", \"config\": \"%s\", "
                  "\"scalar_ns_per_item\": %.2f, \"batch_ns_per_item\": %.2f, "
                  "\"simd_ns_per_item\": %.2f, \"speedup\": %.3f, "
                  "\"simd_speedup\": %.3f, \"simd_level\": \"%s\", "
                  "\"has_kernel\": %s, \"batch_size\": %zu}%s\n",
                  e.op.c_str(), e.config.c_str(), e.scalar_ns, e.batch_ns,
                  e.simd_ns, e.speedup(), e.simd_speedup(), level,
                  e.has_kernel ? "true" : "false", e.batch_size,
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
      "Hot-path ingestion: scalar vs batch (kernels forced scalar) vs simd "
      "(dispatched level: %s).\n",
      common::simd::level_name(common::simd::detected_level()));
  std::vector<Entry> entries;

  if (quick) {
    entries.push_back(bench_sliding_dft(2048, 32, min_time_s));
    entries.push_back(bench_agms(80, min_time_s));
    entries.push_back(bench_fast_agms(5, 256, min_time_s));
    entries.push_back(bench_counting_bloom(16384, 2048, min_time_s));
    entries.push_back(bench_count_window(2048, min_time_s));
    entries.push_back(bench_tuple_store(min_time_s));
    entries.push_back(bench_tuple_store_probe(min_time_s));
    entries.push_back(bench_tuple_store_collect(min_time_s));
  } else {
    entries.push_back(bench_sliding_dft(2048, 8, min_time_s));
    entries.push_back(bench_sliding_dft(2048, 32, min_time_s));
    entries.push_back(bench_sliding_dft(2048, 128, min_time_s));
    entries.push_back(bench_sliding_dft(8192, 256, min_time_s));
    entries.push_back(bench_agms(20, min_time_s));
    entries.push_back(bench_agms(80, min_time_s));
    entries.push_back(bench_agms(320, min_time_s));
    entries.push_back(bench_fast_agms(5, 64, min_time_s));
    entries.push_back(bench_fast_agms(5, 256, min_time_s));
    entries.push_back(bench_fast_agms(7, 512, min_time_s));
    entries.push_back(bench_counting_bloom(16384, 2048, min_time_s));
    entries.push_back(bench_counting_bloom(65536, 2048, min_time_s));
    entries.push_back(bench_count_window(2048, min_time_s));
    entries.push_back(bench_count_window(8192, min_time_s));
    entries.push_back(bench_tuple_store(min_time_s));
    entries.push_back(bench_tuple_store_probe(min_time_s));
    entries.push_back(bench_tuple_store_collect(min_time_s));
  }

  std::printf("%-16s %-22s %12s %12s %12s %9s %9s\n", "operator", "config",
              "scalar ns/it", "batch ns/it", "simd ns/it", "speedup",
              "simd spd");
  bool regression = false;
  for (const Entry& e : entries) {
    std::printf("%-16s %-22s %12.2f %12.2f %12.2f %8.2fx %8.2fx\n",
                e.op.c_str(), e.config.c_str(), e.scalar_ns, e.batch_ns,
                e.simd_ns, e.speedup(), e.simd_speedup());
    if (e.speedup() < 0.9) regression = true;
    if (e.has_kernel && e.simd_speedup() < 0.9) regression = true;
  }
  write_json(entries, out_path);
  std::printf("\nwrote %s (%zu entries, batch size %zu)\n", out_path.c_str(),
              entries.size(), kBatchSize);

  if (check && regression) {
    std::fprintf(stderr,
                 "FAIL: batch path >10%% slower than scalar, or simd path "
                 ">10%% slower than batch, on at least one operator\n");
    return 1;
  }
  return 0;
}
