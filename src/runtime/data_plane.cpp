#include "dsjoin/runtime/data_plane.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

namespace dsjoin::runtime {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kCoverTimeoutS = 30.0;  // then the chunk goes in anyway
constexpr double kStopLingerS = 5.0;     // stop() keeps writing this long
constexpr double kMaxWaitS = 1.0;        // the longest single poll
// Cadence of the published pair count while the node runs. Counting folds
// the collectors in the plane thread's malloc arena, and a fold the report
// does not need leaves memory there, so it runs no more often than
// heartbeats go out.
constexpr double kProgressPeriodS = 0.2;
}  // namespace

DataPlane::DataPlane(const core::SystemConfig& config,
                     const core::ArrivalSchedule& schedule,
                     std::unique_ptr<net::MeshTransport> mesh, bool pace)
    : mesh_(std::move(mesh)),
      host_(config, mesh_->self(), *mesh_),
      tuples_(schedule.tuples),
      chunk_(std::max<std::size_t>(std::size_t{1}, config.coalesce_frames)),
      sync_epoch_s_(config.summary_sync_epoch_s),
      sync_(host_.node().uses_summaries()),
      pace_(pace) {
  batch_.reserve(chunk_);
  host_.set_peer_death_hook([this](net::NodeId peer) { mesh_->mark_peer_dead(peer); });
  if (sync_) host_.enable_summary_watermarks();
  mesh_->set_batch_handler([this](std::vector<net::Frame>&& frames) {
    host_.deliver_batch(std::move(frames));
  });
  // The mesh reports a death after the link's last record, so the peer's
  // eviction clock (DESIGN.md §21) is released behind everything it sent.
  mesh_->set_peer_down([this](net::NodeId peer) {
    host_.note_peer_dead(peer);
    host_.node().note_peer_dead(peer);
  });
}

DataPlane::~DataPlane() { stop(); }

void DataPlane::start() {
  thread_ = std::thread([this] { run(); });
}

void DataPlane::stop() {
  stop_.store(true);
  mesh_->wake();
  if (thread_.joinable()) thread_.join();
}

void DataPlane::run() {
  started_ = Clock::now();
  // Each node picks its own arrivals out of the shared schedule, as every
  // daemon does out of its own copy.
  const net::NodeId id = mesh_->self();
  for (std::size_t i = 0; i < tuples_.size(); ++i) {
    if (tuples_[i].origin == id) mine_.push_back(static_cast<std::uint32_t>(i));
  }
  // Announce the own arrival clock before waiting on anyone: announce-
  // before-wait keeps the mesh deadlock-free.
  if (sync_) {
    host_.announce_summary_watermark(mine_.empty() ? kInf : arrival(0).timestamp);
  }
  if (mine_.empty()) {
    arrivals_done_.store(true);
    arrivals_done_.notify_all();
  }
  double next_progress = kProgressPeriodS;
  while (!stop_.load()) {
    double wait_s = kMaxWaitS;
    const bool ready = chunk_ready(elapsed(), &wait_s);
    if (!mesh_->poll(ready ? 0.0 : wait_s) || stop_.load()) break;
    const double now = elapsed();
    if (chunk_ready(now, &wait_s)) ingest_chunk(now);
    // Past its drain no frame can reach the node: the peers sent FIN-2 last.
    if (next_ == mine_.size() && host_.drain_complete()) break;
    if (now >= next_progress) {
      pairs_discovered_.store(host_.pairs_discovered(), std::memory_order_relaxed);
      next_progress = now + kProgressPeriodS;
    }
  }
  // Write out what the links still hold: the last FIN a peer waits for
  // may be among it.
  const double deadline = elapsed() + kStopLingerS;
  while (mesh_->max_unsent_bytes() > 0 && elapsed() < deadline &&
         mesh_->poll(0.05)) {
  }
  // The final count folds the collectors here, in parallel across nodes,
  // so report() finds them folded.
  pairs_discovered_.store(host_.pairs_discovered(), std::memory_order_relaxed);
}

double DataPlane::elapsed() const {
  return std::chrono::duration<double>(Clock::now() - started_).count();
}

bool DataPlane::chunk_ready(double now, double* wait_s) {
  if (next_ >= mine_.size()) return false;
  const double ts = arrival(next_).timestamp;
  if (pace_ && ts > now) {
    *wait_s = std::min(*wait_s, ts - now);
    return false;
  }
  if (sync_ && !host_.await_summary_cover(ts, 0.0)) {
    if (cover_since_ < 0.0) cover_since_ = now;
    const double left = cover_since_ + kCoverTimeoutS - now;
    if (left > 0.0) {
      *wait_s = std::min(*wait_s, left);
      return false;
    }
  }
  return mesh_->max_unsent_bytes() <= kAdmissionBytes;
}

void DataPlane::ingest_chunk(double now) {
  const std::size_t limit = std::min(chunk_, mine_.size() - next_);
  const double epoch = std::floor(arrival(next_).timestamp / sync_epoch_s_);
  batch_.clear();
  batch_.push_back(arrival(next_));
  for (std::size_t j = 1; j < limit; ++j) {
    const stream::Tuple& tuple = arrival(next_ + j);
    if (sync_ && std::floor(tuple.timestamp / sync_epoch_s_) != epoch) break;
    if (pace_ && tuple.timestamp > now) break;
    batch_.push_back(tuple);
  }
  host_.ingest_batch(std::span<const stream::Tuple>(batch_));
  next_ += batch_.size();
  cover_since_ = -1.0;
  arrivals_ingested_.store(host_.arrivals_ingested(), std::memory_order_relaxed);
  // The next own arrival bounds every future emission; an exhausted slice
  // announces its last arrival and then infinity.
  if (next_ < mine_.size()) {
    if (sync_) host_.announce_summary_watermark(arrival(next_).timestamp);
    return;
  }
  if (sync_) {
    host_.announce_summary_watermark(batch_.back().timestamp);
    host_.announce_summary_watermark(kInf);
  }
  arrivals_done_.store(true);
  arrivals_done_.notify_all();
}

}  // namespace dsjoin::runtime
