// In-memory span tracer for the benchmark's traced runs.
//
// The traced drivers wrap every call they make into a layer's public
// functions in a Tracer::Scope. A span records its name, start, end, the
// span that was open on the same thread when it began (its parent) and the
// thread it ran on. A thread with no open span parents its spans to the
// tracer's root, usually on another thread: receiver threads hang their
// deliveries under the driver's run span that way, and self-time
// arithmetic (self_times) never subtracts such a cross-thread child,
// because it overlaps its parent instead of nesting inside it.
//
// Spans stay in per-thread buffers and are read with collect() once every
// thread that recorded spans has stopped. On x86 a span reads the TSC,
// which costs half a steady_clock::now() on a VM, and collect() converts
// ticks to nanoseconds against steady_clock over the tracer's lifetime.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline constexpr std::int64_t kNoParent = -1;

/// One finished span, with its parent as an index into the same vector.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;  ///< since the tracer was created
  std::int64_t end_ns = 0;
  std::int64_t parent = kNoParent;
  std::uint32_t thread = 0;

  double duration_s() const noexcept {
    return static_cast<double>(end_ns - start_ns) * 1e-9;
  }
};

class Tracer {
  // Per-thread span storage; a parent is (thread, index) until collect()
  // flattens it.
  struct Buffer {
    struct Raw {
      const char* name;
      std::int64_t start_ticks;
      std::int64_t end_ticks;
      std::uint32_t parent_thread;
      std::int64_t parent_index;
    };
    std::uint32_t thread = 0;
    std::vector<Raw> spans;
    std::vector<std::size_t> open;  // indices of open spans, innermost last
  };

 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Times one call: opens a span on construction, closes it on
  /// destruction. Scopes on one thread nest by construction.
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Buffer& buffer_;
    std::size_t index_;
  };

  /// Makes the calling thread's innermost open span the parent of spans
  /// opened on threads that have none open. Call before those threads
  /// start.
  void set_root_to_current();

  /// Every span recorded so far, flattened across threads (thread 0 is the
  /// first thread that recorded one), with times in nanoseconds since the
  /// tracer was created. Call only while no thread records.
  std::vector<Span> collect() const;

 private:
  Buffer& local();
  static std::int64_t ticks() noexcept;

  const Clock::time_point epoch_;
  const std::int64_t epoch_ticks_;
  const std::uint64_t generation_;  // tells this tracer's buffers from stale ones
  std::uint32_t root_thread_ = 0;
  std::int64_t root_index_ = kNoParent;
  std::mutex mutex_;  // guards buffers_ growth
  std::deque<Buffer> buffers_;  // deque: growth keeps references stable
};

/// Self time of every span: its duration minus the durations of its
/// direct children on the same thread. Children on other threads ran
/// concurrently with the parent, so they are not subtracted.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Count, total duration and total self time of the spans sharing a name.
struct SpanTotals {
  std::uint64_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

std::map<std::string, SpanTotals> totals_by_name(const std::vector<Span>& spans);

/// Time from the start of the first span named `first` to the end of the
/// last span named `last` (0 when either is missing).
double interval_s(const std::vector<Span>& spans, const std::string& first,
                  const std::string& last);

}  // namespace perfbench
