#include "dsjoin/net/mesh_transport.hpp"

#include <poll.h>
#include <sys/socket.h>

#include <chrono>
#include <string>

#include "dsjoin/common/log.hpp"
#include "dsjoin/common/strformat.hpp"

namespace dsjoin::net {

namespace {

common::Status fail(const char* what, const std::string& detail) {
  return common::Status(common::ErrorCode::kUnavailable,
                        common::str_format("%s: %s", what, detail.c_str()));
}

}  // namespace

MeshTransport::MeshTransport(NodeId self, std::size_t nodes, UniqueFd listener,
                             std::vector<Endpoint> peers, MeshOptions options)
    : self_(self),
      nodes_(nodes),
      listener_(std::move(listener)),
      peers_(std::move(peers)),
      options_(options),
      peer_fds_(nodes),
      alive_(nodes) {
  send_mutexes_.reserve(nodes);
  send_buffers_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    send_mutexes_.push_back(std::make_unique<std::mutex>());
    send_buffers_.emplace_back(options_.coalesce);
    alive_[i].store(false);
  }
}

MeshTransport::~MeshTransport() { shutdown(); }

void MeshTransport::register_handler(NodeId node, DeliveryHandler handler) {
  // This transport IS node `self`; there is nobody else in-process.
  if (node != self_) return;
  std::lock_guard lock(handlers_mutex_);
  handler_ = std::move(handler);
}

void MeshTransport::set_batch_handler(BatchDeliveryHandler handler) {
  std::lock_guard lock(handlers_mutex_);
  batch_handler_ = std::move(handler);
}

common::Status MeshTransport::connect_mesh() {
  if (nodes_ < 2 || self_ >= nodes_ || peers_.size() != nodes_) {
    return common::Status(common::ErrorCode::kInvalidArgument,
                          "bad mesh geometry");
  }
  // Dial every higher-numbered peer; it identifies us by the u32 id we
  // send first. Retry with backoff: the peer's daemon may not be up yet.
  for (NodeId peer = self_ + 1; peer < nodes_; ++peer) {
    auto fd = tcp_connect_retry(peers_[peer], options_.connect_timeout_s,
                                options_.dial_base_delay_s,
                                options_.dial_max_delay_s);
    if (!fd) return fd.status();
    const std::uint32_t id = self_;
    if (!write_all(fd.value().get(), reinterpret_cast<const std::uint8_t*>(&id),
                   4)) {
      return fail("mesh hello", "write to peer " + std::to_string(peer));
    }
    peer_fds_[peer] = std::move(fd).value();
  }
  // Accept every lower-numbered peer (they dial us), identified by the id
  // they send. Arrival order is arbitrary.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(options_.connect_timeout_s);
  for (NodeId remaining = self_; remaining > 0; --remaining) {
    const double left =
        std::chrono::duration<double>(deadline - std::chrono::steady_clock::now())
            .count();
    if (left <= 0.0) {
      return fail("mesh accept", "timed out waiting for lower-numbered peers");
    }
    auto fd = tcp_accept(listener_.get(), left);
    if (!fd) return fd.status();
    std::uint32_t id = 0;
    if (!read_exact(fd.value().get(), reinterpret_cast<std::uint8_t*>(&id), 4)) {
      return fail("mesh hello", "read from dialing peer");
    }
    if (id >= self_ || peer_fds_[id].valid()) {
      return fail("mesh hello", "unexpected peer id " + std::to_string(id));
    }
    peer_fds_[id] = std::move(fd).value();
  }
  for (NodeId peer = 0; peer < nodes_; ++peer) {
    if (peer != self_) alive_[peer].store(true);
  }
  receiver_ = std::thread([this] { receiver_loop(); });
  return common::Status::ok();
}

common::Status MeshTransport::send(Frame&& frame) {
  const NodeId to = frame.to;
  if (to >= nodes_ || to == self_ || frame.from != self_) {
    return common::Status(common::ErrorCode::kInvalidArgument,
                          "bad frame address");
  }
  if (!running_.load(std::memory_order_relaxed)) {
    return common::Status(common::ErrorCode::kUnavailable, "transport stopped");
  }
  if (!alive_[to].load()) {
    return common::Status(common::ErrorCode::kUnavailable,
                          "peer " + std::to_string(to) + " is down");
  }
  {
    std::lock_guard lock(totals_mutex_);
    totals_.record(frame);
  }
  bool flushed = false;
  std::uint64_t saved = 0;
  {
    std::lock_guard lock(*send_mutexes_[to]);
    if (send_buffers_[to].push(std::move(frame))) {
      flushed = true;
      if (!send_buffers_[to].flush(peer_fds_[to].get(), &saved)) {
        // A send failing is how WE discover a peer died mid-write; the
        // receiver (EOF) handles the callback, we just stop sending.
        alive_[to].store(false);
        return common::Status(
            common::ErrorCode::kUnavailable,
            "write to peer " + std::to_string(to) + " failed");
      }
    }
  }
  if (flushed) {
    std::lock_guard lock(totals_mutex_);
    totals_.record_flush(saved);
  }
  return common::Status::ok();
}

void MeshTransport::mark_peer_dead(NodeId peer) noexcept {
  if (peer < nodes_ && peer != self_) alive_[peer].store(false);
}

void MeshTransport::receiver_loop() {
  std::vector<pollfd> polled;
  std::vector<NodeId> owners;  // peer id behind polled[i]
  for (NodeId peer = 0; peer < nodes_; ++peer) {
    if (peer_fds_[peer].valid()) {
      polled.push_back(pollfd{peer_fds_[peer].get(), POLLIN, 0});
      owners.push_back(peer);
    }
  }
  std::vector<Frame> frames;
  std::vector<std::uint8_t> scratch;
  // Returns once no link is left: an empty poll set would sleep out the
  // whole timeout before it could notice stop().
  while (!polled.empty() && running_.load(std::memory_order_relaxed)) {
    if (::poll(polled.data(), polled.size(), 100 /*ms*/) <= 0) continue;
    for (std::size_t i = 0; i < polled.size();) {
      if ((polled[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
        ++i;
        continue;
      }
      frames.clear();
      if (!read_wire_frames(polled[i].fd, &frames, &scratch)) {
        // EOF or a corrupt stream: the link leaves the poll set. Outside
        // shutdown the peer process died (or closed its end); the callback
        // fires behind everything the peer managed to send, since this
        // thread delivered the link's earlier records in order.
        const NodeId peer = owners[i];
        polled.erase(polled.begin() + static_cast<std::ptrdiff_t>(i));
        owners.erase(owners.begin() + static_cast<std::ptrdiff_t>(i));
        if (running_.load()) {
          alive_[peer].store(false);
          DSJOIN_LOG_INFO("node %u: peer %u data link down", self_, peer);
          if (peer_down_) peer_down_(peer);
        }
        continue;
      }
      DeliveryHandler handler;
      BatchDeliveryHandler batch_handler;
      {
        std::lock_guard lock(handlers_mutex_);
        if (batch_handler_) {
          batch_handler = batch_handler_;
        } else {
          handler = handler_;
        }
      }
      if (batch_handler) {
        batch_handler(std::move(frames));
        frames = {};
      } else if (handler) {
        for (Frame& frame : frames) handler(std::move(frame));
      }
      ++i;
    }
  }
}

void MeshTransport::stop() noexcept {
  if (!running_.exchange(false)) return;
  // Shut the sockets down without closing them (senders may still hold
  // the fds): the receiver's poll wakes and reads EOF on every link.
  for (const auto& fd : peer_fds_) {
    if (fd.valid()) ::shutdown(fd.get(), SHUT_RDWR);
  }
  if (listener_.valid()) ::shutdown(listener_.get(), SHUT_RDWR);
}

void MeshTransport::shutdown() {
  stop();
  if (receiver_.joinable()) receiver_.join();
  for (NodeId peer = 0; peer < nodes_; ++peer) {
    std::lock_guard lock(*send_mutexes_[peer]);
    peer_fds_[peer].reset();
  }
  listener_.reset();
}

}  // namespace dsjoin::net
