#include "dsjoin/sketch/agms.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace dsjoin::sketch {

namespace {
// Batch passes run over fixed-size chunks so the hash scratch stays cache
// resident regardless of how many tuples an epoch delivers.
constexpr std::size_t kBatchChunk = 1024;
}  // namespace

AgmsShape AgmsShape::for_budget(std::size_t total_counters) {
  // s0 = 5*s1 (the paper's 5:1 ratio) with s0*s1 <= total_counters.
  std::uint32_t s1 = static_cast<std::uint32_t>(
      std::sqrt(static_cast<double>(total_counters) / 5.0));
  if (s1 == 0) s1 = 1;
  std::uint32_t s0 = 5 * s1;
  while (static_cast<std::size_t>(s0) * s1 > total_counters && s0 > 1) --s0;
  if (s0 == 0) s0 = 1;
  return AgmsShape{s0, s1};
}

AgmsSketch::AgmsSketch(AgmsShape shape, std::uint64_t seed)
    : shape_(shape), seed_(seed), counters_(shape.counters(), 0) {
  if (shape.s0 == 0 || shape.s1 == 0) {
    throw std::invalid_argument("AGMS shape must be positive");
  }
  common::Xoshiro256 rng(seed);
  xi_.reserve(shape.counters());
  for (std::size_t i = 0; i < shape.counters(); ++i) xi_.emplace_back(rng);
}

void AgmsSketch::update(std::uint64_t key, std::int64_t weight) {
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += weight * xi_[i].sign(key);
  }
}

void AgmsSketch::update_batch(std::span<const std::uint64_t> keys,
                              std::int64_t weight) {
  // Pass 1 per chunk: reduce each key to its powers mod 2^61-1 once,
  // instead of once per counter. Pass 2 sweeps the counter grid in the
  // outer loop so each counter is read and written exactly once per chunk;
  // the per-counter sign total is the parity sum
  // sum_j sign_j == 2 * sum_j bit_j - n, which keeps the inner loop free of
  // selects. Integer addition commutes, so this reordering reproduces the
  // scalar path's counters exactly.
  for (std::size_t base = 0; base < keys.size(); base += kBatchChunk) {
    const std::size_t n = std::min(kBatchChunk, keys.size() - base);
    powers_scratch_.resize(n);
    for (std::size_t j = 0; j < n; ++j) {
      powers_scratch_[j] = KeyPowers::of(keys[base + j]);
    }
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      const FourWiseHash& xi = xi_[i];
      std::uint64_t bits = 0;
      for (const KeyPowers& p : powers_scratch_) bits += xi.eval_powers(p) & 1u;
      counters_[i] += weight * (2 * static_cast<std::int64_t>(bits) -
                                static_cast<std::int64_t>(n));
    }
  }
}

double AgmsSketch::estimate_join(const AgmsSketch& f, const AgmsSketch& g) {
  assert(f.shape_.s0 == g.shape_.s0 && f.shape_.s1 == g.shape_.s1);
  assert(f.seed_ == g.seed_);
  std::vector<double>& row_means = f.estimate_scratch_;
  row_means.clear();
  row_means.reserve(f.shape_.s0);
  for (std::uint32_t r = 0; r < f.shape_.s0; ++r) {
    double acc = 0.0;
    for (std::uint32_t c = 0; c < f.shape_.s1; ++c) {
      const std::size_t i = static_cast<std::size_t>(r) * f.shape_.s1 + c;
      acc += static_cast<double>(f.counters_[i]) * static_cast<double>(g.counters_[i]);
    }
    row_means.push_back(acc / static_cast<double>(f.shape_.s1));
  }
  return median_in_place(row_means);
}

void AgmsSketch::merge(const AgmsSketch& other) {
  assert(seed_ == other.seed_);
  assert(counters_.size() == other.counters_.size());
  for (std::size_t i = 0; i < counters_.size(); ++i) {
    counters_[i] += other.counters_[i];
  }
}

void AgmsSketch::serialize(common::BufferWriter& out) const {
  out.write_u32(shape_.s0);
  out.write_u32(shape_.s1);
  out.write_u64(seed_);
  for (std::int64_t c : counters_) out.write_i64(c);
}

common::Result<AgmsSketch> AgmsSketch::deserialize(common::BufferReader& in) {
  auto s0 = in.read_u32();
  if (!s0) return s0.status();
  auto s1 = in.read_u32();
  if (!s1) return s1.status();
  auto seed = in.read_u64();
  if (!seed) return seed.status();
  if (s0.value() == 0 || s1.value() == 0 ||
      static_cast<std::size_t>(s0.value()) * s1.value() > (1u << 24)) {
    return common::Status(common::ErrorCode::kDataLoss, "implausible AGMS shape");
  }
  AgmsSketch sketch(AgmsShape{s0.value(), s1.value()}, seed.value());
  for (auto& c : sketch.counters_) {
    auto v = in.read_i64();
    if (!v) return v.status();
    c = v.value();
  }
  return sketch;
}

void AgmsSketch::set_counters(std::vector<std::int64_t> counters) {
  assert(counters.size() == counters_.size());
  counters_ = std::move(counters);
}

FastAgmsSketch::FastAgmsSketch(std::uint32_t rows, std::uint32_t buckets,
                               std::uint64_t seed)
    : rows_(rows), buckets_(buckets), seed_(seed),
      counters_(static_cast<std::size_t>(rows) * buckets, 0) {
  if (rows == 0 || buckets == 0) {
    throw std::invalid_argument("FastAgms shape must be positive");
  }
  common::Xoshiro256 rng(seed);
  bucket_hash_.reserve(rows);
  sign_hash_.reserve(rows);
  for (std::uint32_t r = 0; r < rows; ++r) {
    bucket_hash_.emplace_back(rng);
    sign_hash_.emplace_back(rng);
  }
}

void FastAgmsSketch::update(std::uint64_t key, std::int64_t weight) {
  for (std::uint32_t r = 0; r < rows_; ++r) {
    const std::uint64_t b = bucket_hash_[r].bucket(key, buckets_);
    counters_[static_cast<std::size_t>(r) * buckets_ + b] +=
        weight * sign_hash_[r].sign(key);
  }
}

double FastAgmsSketch::estimate_join(const FastAgmsSketch& f,
                                     const FastAgmsSketch& g) {
  assert(f.rows_ == g.rows_ && f.buckets_ == g.buckets_ && f.seed_ == g.seed_);
  std::vector<double>& row_products = f.estimate_scratch_;
  row_products.clear();
  row_products.reserve(f.rows_);
  for (std::uint32_t r = 0; r < f.rows_; ++r) {
    double acc = 0.0;
    for (std::uint32_t b = 0; b < f.buckets_; ++b) {
      const std::size_t i = static_cast<std::size_t>(r) * f.buckets_ + b;
      acc += static_cast<double>(f.counters_[i]) * static_cast<double>(g.counters_[i]);
    }
    row_products.push_back(acc);
  }
  return median_in_place(row_products);
}

double median(std::vector<double> values) {
  return median_in_place(values);
}

double median_in_place(std::span<double> values) {
  assert(!values.empty());
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid),
                   values.end());
  if (values.size() % 2 == 1) return values[mid];
  const double upper = values[mid];
  const double lower =
      *std::max_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(mid));
  return 0.5 * (lower + upper);
}

}  // namespace dsjoin::sketch
