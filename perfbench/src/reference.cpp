#include "reference.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "trace.hpp"

namespace perfbench {

namespace {

// Median times of the kernels on the 4-core Xeon VM the benchmark was
// defined on, in a quiet period. They set the scale of the steady clock
// only: any fixed values would do, as long as they never change.
constexpr std::array<double, ReferenceWork::kKernels> kNominalS = {
    0.0019,  // alu
    0.0029,  // hash
    0.0035,  // chase
};

constexpr int kRepeats = 3;
constexpr std::size_t kTableSlots = std::size_t{1} << 18;  // 4 MB of pairs
constexpr int kTableKeys = 120'000;
constexpr std::size_t kChaseEntries = std::size_t{1} << 22;  // 16 MB
constexpr int kChaseSteps = 30'000;

std::uint64_t xorshift(std::uint64_t& state) {
  state ^= state << 13;
  state ^= state >> 7;
  state ^= state << 17;
  return state;
}

template <class Work>
double seconds_of(Work&& work) {
  const auto start = Clock::now();
  work();
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Keeps the compiler from dropping a kernel whose result is unused.
volatile std::uint64_t sink;
void keep(std::uint64_t value) { sink = value; }

}  // namespace

ReferenceWork::ReferenceWork()
    : table_(2 * kTableSlots), next_(kChaseEntries) {
  // Sattolo's shuffle: one cycle through every entry, in an order the
  // prefetcher cannot follow, so each step of the chase waits on memory.
  for (std::uint32_t i = 0; i < next_.size(); ++i) next_[i] = i;
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = next_.size() - 1; i > 0; --i) {
    std::swap(next_[i], next_[xorshift(state) % i]);
  }
}

std::size_t ReferenceWork::resident_bytes() const {
  return table_.size() * sizeof(table_[0]) + next_.size() * sizeof(next_[0]);
}

double ReferenceWork::time_alu() const {
  // Eight independent chains keep the core's integer units busy, as the
  // program's code does, rather than waiting on one chain's latency.
  return seconds_of([] {
    std::array<std::uint64_t, 8> x = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int i = 0; i < 500'000; ++i) {
      for (std::uint64_t& chain : x) {
        chain = chain * 6364136223846793005ULL + 1442695040888963407ULL;
        chain ^= chain >> 29;
      }
    }
    std::uint64_t all = 0;
    for (const std::uint64_t chain : x) all ^= chain;
    keep(all);
  });
}

double ReferenceWork::time_hash() {
  // Open addressing in a buffer of its own, so the program's heap has no
  // say in how long this takes. Keys are never 0, the empty mark.
  return seconds_of([this] {
    const std::size_t mask = kTableSlots - 1;
    const auto slot_of = [&](std::uint64_t key) {
      std::size_t slot = (key * 0x9e3779b97f4a7c15ULL >> 40) & mask;
      while (table_[2 * slot] != 0 && table_[2 * slot] != key) {
        slot = (slot + 1) & mask;
      }
      return slot;
    };
    std::uint64_t state = 7;
    std::uint64_t found = 0;
    std::fill(table_.begin(), table_.end(), 0);
    for (int i = 0; i < kTableKeys; ++i) {
      const std::uint64_t key = (xorshift(state) >> 47) + 1;
      const std::size_t slot = slot_of(key);
      table_[2 * slot] = key;
      table_[2 * slot + 1] += static_cast<std::uint64_t>(i);
    }
    for (int i = 0; i < kTableKeys; ++i) {
      const std::size_t slot = slot_of((xorshift(state) >> 47) + 1);
      found += table_[2 * slot + 1];
    }
    keep(found);
  });
}

double ReferenceWork::time_chase() const {
  return seconds_of([this] {
    std::uint32_t at = 0;
    for (int i = 0; i < kChaseSteps; ++i) at = next_[at];
    keep(at);
  });
}

double ReferenceWork::slowdown() {
  std::array<std::array<double, kRepeats>, kKernels> samples{};
  for (int r = 0; r < kRepeats; ++r) {
    samples[0][r] = time_alu();
    samples[1][r] = time_hash();
    samples[2][r] = time_chase();
  }
  std::array<double, kKernels> times{};
  for (std::size_t k = 0; k < kKernels; ++k) {
    // The median of three ignores one repeat cut by preemption.
    std::sort(samples[k].begin(), samples[k].end());
    times[k] = samples[k][kRepeats / 2];
  }
  return slowdown_of(times, kNominalS);
}

double slowdown_of(const std::array<double, ReferenceWork::kKernels>& times,
                   const std::array<double, ReferenceWork::kKernels>& nominal) {
  double log_sum = 0.0;
  for (std::size_t k = 0; k < times.size(); ++k) {
    log_sum += std::log(times[k] / nominal[k]);
  }
  return std::exp(log_sum / static_cast<double>(times.size()));
}

}  // namespace perfbench
