#include "trace.hpp"

#include <atomic>
#include <limits>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace perfbench {

namespace {

std::atomic<std::uint64_t> next_generation{1};

// The calling thread's buffer in the tracer of `generation`, if any.
struct ThreadSlot {
  std::uint64_t generation = 0;
  void* buffer = nullptr;
};
thread_local ThreadSlot tls_slot;

}  // namespace

Tracer::Tracer()
    : epoch_(Clock::now()),
      epoch_ticks_(ticks()),
      generation_(next_generation.fetch_add(1)) {}

std::int64_t Tracer::ticks() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return static_cast<std::int64_t>(__rdtsc());
#else
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
#endif
}

Tracer::Buffer& Tracer::local() {
  if (tls_slot.generation == generation_) {
    return *static_cast<Buffer*>(tls_slot.buffer);
  }
  std::lock_guard lock(mutex_);
  Buffer& buffer = buffers_.emplace_back();
  buffer.thread = static_cast<std::uint32_t>(buffers_.size() - 1);
  buffer.spans.reserve(1 << 12);
  tls_slot = ThreadSlot{generation_, &buffer};
  return buffer;
}

Tracer::Scope::Scope(Tracer& tracer, const char* name)
    : buffer_(tracer.local()), index_(buffer_.spans.size()) {
  std::uint32_t parent_thread = tracer.root_thread_;
  std::int64_t parent_index = tracer.root_index_;
  if (!buffer_.open.empty()) {
    parent_thread = buffer_.thread;
    parent_index = static_cast<std::int64_t>(buffer_.open.back());
  }
  buffer_.open.push_back(index_);
  buffer_.spans.push_back(
      Buffer::Raw{name, Tracer::ticks(), 0, parent_thread, parent_index});
}

Tracer::Scope::~Scope() {
  buffer_.spans[index_].end_ticks = Tracer::ticks();
  buffer_.open.pop_back();
}

void Tracer::set_root_to_current() {
  Buffer& buffer = local();
  if (buffer.open.empty()) return;
  root_thread_ = buffer.thread;
  root_index_ = static_cast<std::int64_t>(buffer.open.back());
}

std::vector<Span> Tracer::collect() const {
  const double elapsed_ns =
      std::chrono::duration<double, std::nano>(Clock::now() - epoch_).count();
  const auto elapsed_ticks = static_cast<double>(ticks() - epoch_ticks_);
  const double ns_per_tick = elapsed_ticks > 0.0 ? elapsed_ns / elapsed_ticks : 1.0;
  const auto to_ns = [&](std::int64_t t) {
    return static_cast<std::int64_t>(
        static_cast<double>(t - epoch_ticks_) * ns_per_tick);
  };
  std::vector<std::size_t> offset(buffers_.size() + 1, 0);
  for (std::size_t t = 0; t < buffers_.size(); ++t) {
    offset[t + 1] = offset[t] + buffers_[t].spans.size();
  }
  std::vector<Span> spans;
  spans.reserve(offset.back());
  for (const Buffer& buffer : buffers_) {
    for (const Buffer::Raw& raw : buffer.spans) {
      Span span;
      span.name = raw.name;
      span.start_ns = to_ns(raw.start_ticks);
      span.end_ns = raw.end_ticks < raw.start_ticks ? span.start_ns
                                                    : to_ns(raw.end_ticks);
      span.thread = buffer.thread;
      if (raw.parent_index != kNoParent) {
        span.parent = static_cast<std::int64_t>(offset[raw.parent_thread]) +
                      raw.parent_index;
      }
      spans.push_back(span);
    }
  }
  return spans;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    self[i] = spans[i].duration_s();
  }
  for (const Span& span : spans) {
    if (span.parent == kNoParent) continue;
    const auto parent = static_cast<std::size_t>(span.parent);
    if (spans[parent].thread == span.thread) self[parent] -= span.duration_s();
  }
  return self;
}

std::map<std::string, SpanTotals> totals_by_name(const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    SpanTotals& entry = totals[spans[i].name];
    ++entry.count;
    entry.total_s += spans[i].duration_s();
    entry.self_s += self[i];
  }
  return totals;
}

double interval_s(const std::vector<Span>& spans, const std::string& first,
                  const std::string& last) {
  std::int64_t begin = std::numeric_limits<std::int64_t>::max();
  std::int64_t end = std::numeric_limits<std::int64_t>::min();
  for (const Span& span : spans) {
    if (first == span.name && span.start_ns < begin) begin = span.start_ns;
    if (last == span.name && span.end_ns > end) end = span.end_ns;
  }
  if (begin == std::numeric_limits<std::int64_t>::max() ||
      end == std::numeric_limits<std::int64_t>::min() || end < begin) {
    return 0.0;
  }
  return static_cast<double>(end - begin) * 1e-9;
}

}  // namespace perfbench
