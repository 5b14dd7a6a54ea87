// One node's data plane: its end of the mesh, its NodeHost, and the one
// thread that runs both (DESIGN.md §9). A node daemon runs one beside its
// control loop; the in-process backend runs N over net::form_local_mesh,
// sharing nothing but the arrival schedule.
//
// Each turn of the thread's loop polls the node's sockets, which hands
// every complete wire record to the host in link order, then ingests the
// node's next chunk of arrivals if it is ready: arrivals remain (and, when
// paced, are due); summary cover holds — every peer's watermark has passed
// the chunk's visibility epoch (§12), or 30 s have passed without it and
// the chunk goes in anyway; and no link holds more than kAdmissionBytes
// its socket has not taken. Otherwise the loop sleeps in poll until the
// next event. Reading never stops, so a slow peer throttles a fast one
// without a deadlock.
//
// Threading: while the plane's thread runs, only it touches the node.
// Other threads may call host().begin_drain() and host().wait_drain(), and
// read the progress counters. The thread ends once the node's drain
// completes or stop() is called.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "dsjoin/core/node_host.hpp"
#include "dsjoin/core/schedule.hpp"
#include "dsjoin/net/mesh_transport.hpp"

namespace dsjoin::runtime {

class DataPlane {
 public:
  /// Unsent bytes on any one link above which the plane stops ingesting.
  static constexpr std::size_t kAdmissionBytes = 256 * 1024;

  /// @param schedule  the run's arrival schedule, of which the plane
  ///                  ingests the arrivals that originate at the mesh's
  ///                  node. Must outlive the plane.
  /// @param mesh      this node's end of the mesh, formed.
  /// @param pace      replay arrivals in real time (DaemonOptions::pace).
  DataPlane(const core::SystemConfig& config,
            const core::ArrivalSchedule& schedule,
            std::unique_ptr<net::MeshTransport> mesh, bool pace = false);
  ~DataPlane();

  DataPlane(const DataPlane&) = delete;
  DataPlane& operator=(const DataPlane&) = delete;

  void start();

  /// Stops ingesting, keeps writing for up to 5 s until the links hold no
  /// unsent bytes (the last FIN a peer waits for may be among them), and
  /// joins the thread. The thread does the same by itself once the node's
  /// drain completes. Safe to call twice.
  void stop();

  core::NodeHost& host() noexcept { return host_; }
  net::MeshTransport& mesh() noexcept { return *mesh_; }

  bool arrivals_done() const noexcept { return arrivals_done_.load(); }
  void wait_arrivals() const { arrivals_done_.wait(false); }
  std::uint64_t arrivals_ingested() const noexcept {
    return arrivals_ingested_.load(std::memory_order_relaxed);
  }
  /// Distinct pairs discovered: as of at most 0.2 s ago, and final once
  /// the thread has ended.
  std::uint64_t pairs_discovered() const noexcept {
    return pairs_discovered_.load(std::memory_order_relaxed);
  }

  /// The node's final accounting with the traffic it sent. After stop().
  core::NodeReport report() const { return host_.report(mesh_->stats_snapshot()); }

 private:
  using Clock = std::chrono::steady_clock;

  void run();
  double elapsed() const;  // seconds since the thread started
  /// Whether the next chunk may go in at `now`; if not, lowers *wait_s to
  /// the time until the next paced arrival or the cover timeout.
  bool chunk_ready(double now, double* wait_s);
  void ingest_chunk(double now);
  const stream::Tuple& arrival(std::size_t i) const { return tuples_[mine_[i]]; }

  std::unique_ptr<net::MeshTransport> mesh_;
  core::NodeHost host_;
  const std::vector<stream::Tuple>& tuples_;  // the shared schedule
  std::vector<stream::Tuple> batch_;  // the chunk being ingested
  std::size_t chunk_;
  double sync_epoch_s_;
  bool sync_;
  bool pace_;

  // Loop state, owned by the thread.
  std::vector<std::uint32_t> mine_;  // positions of this node's arrivals
  std::size_t next_ = 0;             // first of them not yet ingested
  Clock::time_point started_;
  double cover_since_ = -1.0;  // when chunk next_ began to wait for cover

  std::atomic<bool> stop_{false};
  std::atomic<bool> arrivals_done_{false};
  std::atomic<std::uint64_t> arrivals_ingested_{0};
  std::atomic<std::uint64_t> pairs_discovered_{0};
  std::thread thread_;
};

}  // namespace dsjoin::runtime
