// Experiment metrics.
//
// MetricsCollector gathers the result pairs the distributed system reports
// (deduplicated globally — a pair may be discovered at both owners), so that
// epsilon (Eq. 1), messages per result tuple and throughput can be computed
// against the exact-join oracle.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dsjoin/net/frame.hpp"
#include "dsjoin/stream/tuple.hpp"

namespace dsjoin::core {

/// Global (cross-node) result accounting.
///
/// Layout: record_pair appends {pair, discoverer} to a log; a fold
/// stable-sorts the log by (r_id, s_id) and merges it into the distinct
/// set, a sorted, duplicate-free vector. Each pair the set did not yet
/// hold credits the discoverer of its earliest log entry — the first
/// report in record order, as if every report were inserted one by one.
/// Readers fold first; a fold also runs once the log reaches a quarter of
/// the distinct set, which bounds the log's memory.
///
/// Threads: no two threads may use one collector at once, readers
/// included — readers are const but fold the log in place. Parallel
/// drivers keep that by construction through epochs, below.
///
/// Parallel epochs: the collector is shared by all nodes, so the parallel
/// driver opens an epoch around each worker phase; record_pair from a bound
/// worker thread is buffered per slot and end_epoch() applies the buffers
/// in slot order — the serial dispatch order — keeping first-discoverer
/// attribution bit-identical to a serial run.
class MetricsCollector {
 public:
  /// Records a discovered pair; duplicates (same r_id/s_id) count once.
  void record_pair(const stream::ResultPair& pair, net::NodeId discoverer,
                   double now);

  /// Opens an epoch with `slots` report buffers (one per deferred task).
  void begin_epoch(std::size_t slots);
  /// Binds the calling thread to `slot` for the current epoch — of this
  /// collector and of every collector sharing its epoch group.
  void bind_epoch_slot(std::size_t slot);
  /// Applies all buffered reports in slot order.
  void end_epoch();

  /// Joins an epoch group: collectors sharing a group tag buffer under one
  /// thread binding, so a driver with several collectors (one per query)
  /// opens their epochs together and binds slots through any one of them.
  /// Default group: the collector itself (single-collector drivers change
  /// nothing). Set before the first epoch.
  void set_epoch_group(const void* group) noexcept { epoch_group_ = group; }

  /// Distinct pairs reported by the system — |Psi-hat| of Eq. 1.
  std::uint64_t distinct_pairs() const {
    fold();
    return distinct_.size();
  }

  /// Snapshot of every distinct pair recorded so far, sorted ascending by
  /// (r_id, s_id) — independent of report order, so the snapshot (and
  /// anything serialized from it, like METRICS_REPORT) is identical across
  /// runs and across processes. This is the wire-metrics hook: a node
  /// daemon's local collector knows only the pairs *it* discovered, so it
  /// ships this snapshot to the coordinator, which merges the lists of all
  /// nodes (merge_pair_lists) to perform the global dedup the one-process
  /// experiments get from sharing a single instance.
  std::vector<stream::ResultPair> pairs() const;

  /// Total (non-deduplicated) pair reports, for double-discovery diagnostics.
  std::uint64_t total_reports() const noexcept { return total_reports_; }

  /// Virtual time of the most recent report.
  double last_report_time() const noexcept { return last_report_time_; }

  /// Pairs first discovered by each node.
  const std::vector<std::uint64_t>& per_node_discoveries() const {
    fold();
    return per_node_;
  }

  /// Sizes the per-node vector; call before the run starts.
  void set_node_count(std::size_t nodes) {
    fold();
    per_node_.assign(nodes, 0);
  }

 private:
  struct LogEntry {
    stream::ResultPair pair;
    net::NodeId discoverer;
  };
  struct PendingReport {
    stream::ResultPair pair;
    net::NodeId discoverer;
    double now;
  };

  /// Merges the log into the distinct set and credits first discoverers.
  void fold() const;

  mutable std::vector<stream::ResultPair> distinct_;  // sorted, exact-sized
  mutable std::vector<LogEntry> log_;                 // reports since the last fold
  mutable std::vector<std::uint64_t> per_node_;
  const void* epoch_group_ = this;
  std::uint64_t total_reports_ = 0;
  double last_report_time_ = 0.0;
  bool epoch_open_ = false;
  std::vector<std::vector<PendingReport>> epoch_reports_;  // by slot
};

/// Union of pair lists, each in the form pairs() returns: sorted ascending
/// by (r_id, s_id) and duplicate-free. The result has the same form. A list
/// that is not (a report decoded off the wire may hold anything) is sorted
/// and deduplicated first, so the union is exact for any input.
std::vector<stream::ResultPair> merge_pair_lists(
    std::span<const std::span<const stream::ResultPair>> lists);

}  // namespace dsjoin::core
