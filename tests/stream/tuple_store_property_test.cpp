// Property tests for the partitioned SoA TupleStore (DESIGN.md §16): the
// store must agree with stream::reference_join and with a brute-force
// shadow under out-of-order arrivals, duplicate timestamps, boundary-exact
// half-width matches, and eviction-horizon races — at every SIMD level the
// host supports (the match-scan kernels feed every probe).

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "dsjoin/common/rng.hpp"
#include "dsjoin/common/simd.hpp"
#include "dsjoin/stream/window.hpp"

namespace dsjoin::stream {
namespace {

namespace simd = common::simd;

std::vector<simd::Level> supported_levels() {
  std::vector<simd::Level> out{simd::Level::kScalar};
  for (const simd::Level level :
       {simd::Level::kNeon, simd::Level::kAvx2, simd::Level::kAvx512}) {
    if (level <= simd::detected_level()) out.push_back(level);
  }
  return out;
}

struct ForcedLevel {
  explicit ForcedLevel(simd::Level level) { simd::force_level(level); }
  ~ForcedLevel() { simd::reset_level(); }
};

// Timestamps on a 0.25 grid: duplicates are common and probe bounds land
// exactly on stored values (the inclusive-boundary case is always hit).
// Arrival order is shuffled-by-construction: each step jumps backwards with
// probability 1/4, so chunks go unsorted and eviction must compact.
std::vector<Tuple> random_tuples(std::size_t n, StreamSide side,
                                 std::uint64_t id_base,
                                 common::Xoshiro256& rng) {
  std::vector<Tuple> out(n);
  double ts = 8.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.next() % 4 == 0) {
      ts -= 0.25 * static_cast<double>(rng.next() % 16);
    } else {
      ts += 0.25 * static_cast<double>(rng.next() % 4);
    }
    out[i].id = id_base + i;
    out[i].key = static_cast<std::int64_t>(rng.next() % 24);
    out[i].timestamp = ts;
    out[i].origin = static_cast<net::NodeId>(rng.next() % 4);
    out[i].side = side;
  }
  return out;
}

// Streaming probe-then-insert against one store must reproduce the
// reference join: each S tuple probes the R store before insertion order
// matters (R is fully loaded first), so every (r, s) pair within the
// half-width appears exactly once.
TEST(TupleStoreProperty, StreamingProbeMatchesReferenceJoin) {
  for (const simd::Level level : supported_levels()) {
    ForcedLevel forced(level);
    common::Xoshiro256 rng(991);
    const auto r_tuples = random_tuples(400, StreamSide::kR, 1000, rng);
    const auto s_tuples = random_tuples(400, StreamSide::kS, 500000, rng);
    // Boundary-exact half-width: 0.5 is a grid multiple, so |dt| == hw
    // occurs often and both bounds must be inclusive.
    const double half_width = 0.5;

    TupleStore store;
    for (const Tuple& r : r_tuples) store.insert(r);

    std::vector<ResultPair> got;
    std::vector<StoredTuple> matches;
    for (const Tuple& s : s_tuples) {
      EXPECT_EQ(store.count_matches(s.key, s.timestamp, half_width),
                [&] {
                  matches.clear();
                  store.collect_matches(s.key, s.timestamp, half_width,
                                        matches);
                  return matches.size();
                }())
          << simd::level_name(level);
      for (const StoredTuple& m : matches) {
        got.push_back(ResultPair{m.id, s.id});
      }
    }

    auto want = reference_join(r_tuples, s_tuples, half_width);
    auto order = [](const ResultPair& a, const ResultPair& b) {
      return a.r_id != b.r_id ? a.r_id < b.r_id : a.s_id < b.s_id;
    };
    std::sort(want.begin(), want.end(), order);
    std::sort(got.begin(), got.end(), order);
    ASSERT_EQ(want.size(), got.size()) << simd::level_name(level);
    for (std::size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(want[i].r_id, got[i].r_id) << simd::level_name(level);
      ASSERT_EQ(want[i].s_id, got[i].s_id) << simd::level_name(level);
    }
  }
}

// Interleaved insert / evict / probe against a brute-force shadow vector.
// Checks size(), count_matches, and the exact collect_matches id sequence —
// the store pins per-key insertion order as its visitation order.
TEST(TupleStoreProperty, EvictionRacesMatchShadow) {
  for (const simd::Level level : supported_levels()) {
    ForcedLevel forced(level);
    for (const std::uint64_t seed : {7ull, 4242ull, 90210ull}) {
      common::Xoshiro256 rng(seed);
      const auto tuples = random_tuples(1200, StreamSide::kR, 1, rng);

      TupleStore store;
      std::vector<Tuple> shadow;  // insertion order preserved
      double horizon = -std::numeric_limits<double>::infinity();

      for (std::size_t i = 0; i < tuples.size(); ++i) {
        store.insert(tuples[i]);
        shadow.push_back(tuples[i]);
        if (rng.next() % 16 == 0) {
          // Horizon near the probe window's trailing edge: tuples die right
          // where probes look. A tuple inserted after an eviction with an
          // older timestamp must survive until the next eviction — the
          // shadow erase models exactly that.
          horizon = tuples[i].timestamp - 0.25 * double(rng.next() % 12);
          store.evict_before(horizon);
          std::erase_if(shadow, [&](const Tuple& t) {
            return t.timestamp < horizon;
          });
          ASSERT_EQ(shadow.size(), store.size())
              << simd::level_name(level) << " seed=" << seed << " i=" << i;
        }
        if (rng.next() % 8 == 0) {
          const Tuple& probe = tuples[rng.next() % (i + 1)];
          const double hw = 0.25 * static_cast<double>(rng.next() % 8);
          std::uint64_t want_count = 0;
          std::vector<std::uint64_t> want_ids;
          for (const Tuple& t : shadow) {
            if (t.key == probe.key &&
                t.timestamp >= probe.timestamp - hw &&
                t.timestamp <= probe.timestamp + hw) {
              ++want_count;
              want_ids.push_back(t.id);
            }
          }
          EXPECT_EQ(want_count,
                    store.count_matches(probe.key, probe.timestamp, hw))
              << simd::level_name(level) << " seed=" << seed << " i=" << i;
          std::vector<StoredTuple> matches;
          store.collect_matches(probe.key, probe.timestamp, hw, matches);
          std::vector<std::uint64_t> got_ids;
          for (const StoredTuple& m : matches) got_ids.push_back(m.id);
          ASSERT_EQ(want_ids, got_ids)
              << simd::level_name(level) << " seed=" << seed << " i=" << i;
        }
      }
    }
  }
}

}  // namespace
}  // namespace dsjoin::stream
