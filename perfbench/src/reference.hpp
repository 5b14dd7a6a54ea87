// The reference clock for the end-to-end timings.
//
// The VMs this benchmark runs on share their host, and the host's load
// moves every timing together: within an hour the same workload's
// arrivals/s drifted by up to 1.6x, in states that last from seconds to
// minutes. A fixed piece of work timed next to each run drifts with it,
// so the benchmark times it before the first run and after each run, and
// scales each run's timings by how slow the machine was around it. The
// reference work lives here, not in the program, so no change to the
// program moves it.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace perfbench {

class ReferenceWork {
 public:
  /// Number of kernels whose times make up one measurement.
  static constexpr std::size_t kKernels = 3;

  /// Allocates and fills the kernels' buffers (untimed).
  ReferenceWork();

  /// Bytes of the buffers, which stay resident from construction on.
  std::size_t resident_bytes() const;

  /// Times each kernel a few times and returns the machine's slowdown:
  /// the geometric mean over kernels of median time ÷ nominal time.
  /// 1.0 is nominal speed; 1.25 means a quarter slower.
  double slowdown();

 private:
  double time_alu() const;
  double time_hash();
  double time_chase() const;

  std::vector<std::uint64_t> table_;  ///< hash table slots: key, value
  std::vector<std::uint32_t> next_;   ///< one random cycle, for the chase
};

/// Geometric mean of times[i] / nominal[i].
double slowdown_of(const std::array<double, ReferenceWork::kKernels>& times,
                   const std::array<double, ReferenceWork::kKernels>& nominal);

}  // namespace perfbench
