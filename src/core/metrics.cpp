#include "dsjoin/core/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace dsjoin::core {

namespace {
// Which collector/slot the current thread buffers reports for (mirrors the
// SimTransport epoch binding; thread-local so node workers never share it).
struct EpochBinding {
  const void* collector = nullptr;
  std::size_t slot = 0;
};
thread_local EpochBinding tls_epoch_binding;

// A fold runs once the log holds a quarter of the distinct set, and at
// least this many reports: each fold's merge pass copies the whole set, so
// it is paid for by that many reports.
constexpr std::size_t kMinFoldReports = 1024;

std::size_t fold_threshold(std::size_t distinct) {
  return std::max(kMinFoldReports, distinct / 4);
}
}  // namespace

void MetricsCollector::record_pair(const stream::ResultPair& pair,
                                   net::NodeId discoverer, double now) {
  if (epoch_open_ && tls_epoch_binding.collector == epoch_group_) {
    epoch_reports_[tls_epoch_binding.slot].push_back(
        PendingReport{pair, discoverer, now});
    return;
  }
  ++total_reports_;
  if (now > last_report_time_) last_report_time_ = now;
  log_.push_back(LogEntry{pair, discoverer});
  if (log_.size() >= fold_threshold(distinct_.size())) fold();
}

void MetricsCollector::fold() const {
  if (log_.empty()) return;
  // Stable: equal pairs keep record order, so each run of one pair starts
  // with its earliest report.
  std::stable_sort(log_.begin(), log_.end(),
                   [](const LogEntry& a, const LogEntry& b) {
                     return a.pair < b.pair;
                   });
  // Compact the pairs new to the distinct set to the log's front, crediting
  // each one's first discoverer.
  std::size_t fresh = 0;
  auto held = distinct_.cbegin();
  for (std::size_t i = 0; i < log_.size();) {
    const LogEntry first = log_[i];
    do {
      ++i;
    } while (i < log_.size() && log_[i].pair == first.pair);
    held = std::lower_bound(held, distinct_.cend(), first.pair);
    if (held != distinct_.cend() && *held == first.pair) continue;
    if (first.discoverer < per_node_.size()) ++per_node_[first.discoverer];
    log_[fresh++] = first;
  }
  if (fresh > 0) {
    std::vector<stream::ResultPair> merged;
    merged.reserve(distinct_.size() + fresh);
    auto old = distinct_.cbegin();
    for (std::size_t i = 0; i < fresh; ++i) {
      const stream::ResultPair& pair = log_[i].pair;
      while (old != distinct_.cend() && *old < pair) merged.push_back(*old++);
      merged.push_back(pair);
    }
    merged.insert(merged.end(), old, distinct_.cend());
    distinct_ = std::move(merged);
  }
  log_.clear();
  // Room for exactly the reports until the next fold: no growth slack.
  log_.reserve(fold_threshold(distinct_.size()));
}

std::vector<stream::ResultPair> MetricsCollector::pairs() const {
  fold();
  return distinct_;
}

void MetricsCollector::begin_epoch(std::size_t slots) {
  assert(!epoch_open_);
  if (epoch_reports_.size() < slots) epoch_reports_.resize(slots);
  epoch_open_ = true;
}

void MetricsCollector::bind_epoch_slot(std::size_t slot) {
  tls_epoch_binding = EpochBinding{epoch_group_, slot};
}

void MetricsCollector::end_epoch() {
  assert(epoch_open_);
  epoch_open_ = false;
  for (auto& slot : epoch_reports_) {
    for (const auto& report : slot) {
      record_pair(report.pair, report.discoverer, report.now);
    }
    slot.clear();
  }
}

std::vector<stream::ResultPair> merge_pair_lists(
    std::span<const std::span<const stream::ResultPair>> lists) {
  std::vector<stream::ResultPair> merged;
  std::vector<stream::ResultPair> next;
  std::vector<stream::ResultPair> normalized;
  for (std::span<const stream::ResultPair> list : lists) {
    if (list.empty()) continue;
    const bool strictly_ascending =
        std::adjacent_find(list.begin(), list.end(),
                           [](const auto& a, const auto& b) {
                             return !(a < b);
                           }) == list.end();
    if (!strictly_ascending) {
      normalized.assign(list.begin(), list.end());
      std::sort(normalized.begin(), normalized.end());
      normalized.erase(std::unique(normalized.begin(), normalized.end()),
                       normalized.end());
      list = normalized;
    }
    if (merged.empty()) {
      merged.assign(list.begin(), list.end());
      continue;
    }
    next.clear();
    next.reserve(merged.size() + list.size());
    std::set_union(merged.begin(), merged.end(), list.begin(), list.end(),
                   std::back_inserter(next));
    merged.swap(next);
  }
  return merged;
}

}  // namespace dsjoin::core
