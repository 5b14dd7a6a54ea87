#include "dsjoin/net/mesh_transport.hpp"

#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "dsjoin/common/log.hpp"
#include "dsjoin/common/strformat.hpp"

namespace dsjoin::net {

namespace {

common::Status fail(const char* what, const std::string& detail) {
  return common::Status(common::ErrorCode::kUnavailable,
                        common::str_format("%s: %s", what, detail.c_str()));
}

[[noreturn]] void throw_local_mesh(const char* what, const std::string& detail) {
  throw std::runtime_error(
      common::str_format("local mesh: %s: %s", what, detail.c_str()));
}

}  // namespace

MeshTransport::MeshTransport(NodeId self, std::size_t nodes, UniqueFd listener,
                             std::vector<Endpoint> peers, MeshOptions options)
    : self_(self),
      nodes_(nodes),
      listener_(std::move(listener)),
      peers_(std::move(peers)),
      options_(options),
      wake_fd_(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)),
      links_(nodes) {
  if (!wake_fd_.valid()) throw std::runtime_error("MeshTransport: eventfd failed");
  for (NodeId peer = 0; peer < nodes; ++peer) {
    links_[peer].buffer = SendBuffer(options_.coalesce);
    links_[peer].decoder = WireDecoder(peer, self_);
  }
}

MeshTransport::~MeshTransport() { shutdown(); }

void MeshTransport::register_handler(NodeId node, DeliveryHandler handler) {
  // This transport IS node `self`; there is nobody else in-process.
  if (node != self_) return;
  set_batch_handler([handler = std::move(handler)](std::vector<Frame>&& frames) {
    for (Frame& frame : frames) handler(std::move(frame));
  });
}

void MeshTransport::set_batch_handler(BatchDeliveryHandler handler) {
  std::lock_guard lock(handler_mutex_);
  handler_ = std::move(handler);
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
    links_[peer].fd = std::move(fd).value();
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
    if (id >= self_ || links_[id].fd.valid()) {
      return fail("mesh hello", "unexpected peer id " + std::to_string(id));
    }
    links_[id].fd = std::move(fd).value();
  }
  for (NodeId peer = 0; peer < nodes_; ++peer) {
    if (peer == self_) continue;
    links_[peer].open = true;
    links_[peer].alive.store(true);
  }
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
  Link& link = links_[to];
  if (!link.alive.load()) {
    return common::Status(common::ErrorCode::kUnavailable,
                          "peer " + std::to_string(to) + " is down");
  }
  {
    std::lock_guard lock(totals_mutex_);
    totals_.record(frame);
  }
  bool flushed = false;
  bool wake_poller = false;
  std::uint64_t saved = 0;
  {
    std::lock_guard lock(link.send_mutex);
    if (link.buffer.push(std::move(frame))) {
      flushed = true;
      const bool idle = link.unsent.empty();
      saved = link.buffer.flush(&link.unsent);
      // Behind a backlog the socket is full: leave the bytes to poll().
      if (idle && !write_unsent(link)) {
        // A failing write is how WE discover a peer died mid-write; the
        // EOF in poll() handles the callback, we just stop sending.
        link.alive.store(false);
        return common::Status(
            common::ErrorCode::kUnavailable,
            "write to peer " + std::to_string(to) + " failed");
      }
      link.unsent_bytes.store(link.unsent.size() - link.unsent_head,
                              std::memory_order_relaxed);
      // A poller waiting without POLLOUT on this link must look again.
      wake_poller = idle && !link.unsent.empty();
    }
  }
  if (wake_poller) wake();
  if (flushed) {
    std::lock_guard lock(totals_mutex_);
    totals_.record_flush(saved);
  }
  return common::Status::ok();
}

bool MeshTransport::write_unsent(Link& link) {
  while (link.unsent_head < link.unsent.size()) {
    const ssize_t sent =
        ::send(link.fd.get(), link.unsent.data() + link.unsent_head,
               link.unsent.size() - link.unsent_head, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (sent < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      link.unsent.clear();
      link.unsent_head = 0;
      link.unsent_bytes.store(0, std::memory_order_relaxed);
      return false;
    }
    link.unsent_head += static_cast<std::size_t>(sent);
  }
  if (link.unsent_head == link.unsent.size()) {
    link.unsent.clear();  // keeps its capacity for the next record
    link.unsent_head = 0;
  } else if (link.unsent_head * 2 >= link.unsent.size()) {
    link.unsent.erase(link.unsent.begin(),
                      link.unsent.begin() +
                          static_cast<std::ptrdiff_t>(link.unsent_head));
    link.unsent_head = 0;
  }
  link.unsent_bytes.store(link.unsent.size() - link.unsent_head,
                          std::memory_order_relaxed);
  return true;
}

std::size_t MeshTransport::max_unsent_bytes() const noexcept {
  std::size_t most = 0;
  for (const Link& link : links_) {
    most = std::max(most, link.unsent_bytes.load(std::memory_order_relaxed));
  }
  return most;
}

void MeshTransport::mark_peer_dead(NodeId peer) {
  if (peer >= nodes_ || peer == self_) return;
  Link& link = links_[peer];
  link.alive.store(false);
  std::lock_guard lock(link.send_mutex);
  link.unsent.clear();
  link.unsent_head = 0;
  link.unsent_bytes.store(0, std::memory_order_relaxed);
}

void MeshTransport::wake() noexcept {
  const std::uint64_t one = 1;
  (void)!::write(wake_fd_.get(), &one, sizeof(one));
}

bool MeshTransport::poll(double timeout_s) {
  std::lock_guard poll_lock(poll_mutex_);
  if (!running_.load()) return false;
  polled_.clear();
  polled_peers_.clear();
  polled_.push_back(pollfd{wake_fd_.get(), POLLIN, 0});
  for (NodeId peer = 0; peer < nodes_; ++peer) {
    const Link& link = links_[peer];
    if (!link.open) continue;
    const bool backlog = link.unsent_bytes.load(std::memory_order_relaxed) > 0;
    polled_.push_back(pollfd{link.fd.get(),
                             static_cast<short>(backlog ? POLLIN | POLLOUT : POLLIN),
                             0});
    polled_peers_.push_back(peer);
  }
  const int timeout_ms =
      timeout_s < 0.0 ? -1 : static_cast<int>(std::ceil(timeout_s * 1000.0));
  if (::poll(polled_.data(), polled_.size(), timeout_ms) <= 0) {
    return running_.load();
  }
  if (polled_[0].revents & POLLIN) {
    std::uint64_t count = 0;
    (void)!::read(wake_fd_.get(), &count, sizeof(count));
  }
  for (std::size_t i = 1; i < polled_.size(); ++i) {
    const short revents = polled_[i].revents;
    const NodeId peer = polled_peers_[i - 1];
    Link& link = links_[peer];
    if (revents & POLLOUT) {
      std::lock_guard lock(link.send_mutex);
      if (!write_unsent(link)) link.alive.store(false);
    }
    if (revents & (POLLIN | POLLHUP | POLLERR)) receive(peer);
  }
  return running_.load();
}

void MeshTransport::receive(NodeId peer) {
  Link& link = links_[peer];
  const auto space = link.decoder.space();
  ssize_t got;
  do {
    got = ::recv(link.fd.get(), space.data(), space.size(), MSG_DONTWAIT);
  } while (got < 0 && errno == EINTR);
  if (got < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
  bool ended = got <= 0;
  if (got > 0) link.decoder.commit(static_cast<std::size_t>(got));

  BatchDeliveryHandler handler;
  {
    std::lock_guard lock(handler_mutex_);
    handler = handler_;
  }
  for (;;) {
    frames_.clear();
    const WireDecoder::Next next = link.decoder.next(&frames_);
    if (next == WireDecoder::Next::kIncomplete) break;
    if (next == WireDecoder::Next::kCorrupt) {
      ended = true;
      break;
    }
    if (handler) handler(std::move(frames_));
  }
  if (!ended) return;
  // EOF, a failed read or a corrupt record: the link leaves the poll set.
  // Outside shutdown the peer died (or closed its end, or cannot be
  // trusted); the callback fires behind every record the link delivered.
  link.open = false;
  if (running_.load()) {
    mark_peer_dead(peer);
    DSJOIN_LOG_INFO("node %u: peer %u data link down", self_, peer);
    if (peer_down_) peer_down_(peer);
  }
}

void MeshTransport::shutdown() {
  running_.store(false);
  wake();
  std::lock_guard poll_lock(poll_mutex_);
  for (Link& link : links_) {
    std::lock_guard lock(link.send_mutex);
    link.fd.reset();
  }
  listener_.reset();
}

std::vector<std::unique_ptr<MeshTransport>> form_local_mesh(
    std::size_t nodes, CoalesceOptions coalesce) {
  std::vector<UniqueFd> listeners;
  std::vector<Endpoint> endpoints;
  for (std::size_t i = 0; i < nodes; ++i) {
    // Node j holds j queued dials before it accepts any (below).
    auto fd = tcp_listen(0, static_cast<int>(nodes));
    if (!fd) throw_local_mesh("listen", fd.status().message());
    auto port = bound_port(fd.value().get());
    if (!port) throw_local_mesh("getsockname", port.status().message());
    endpoints.push_back(Endpoint{"127.0.0.1", port.value()});
    listeners.push_back(std::move(fd).value());
  }
  MeshOptions options;
  options.coalesce = coalesce;
  std::vector<std::unique_ptr<MeshTransport>> meshes;
  meshes.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    meshes.push_back(std::make_unique<MeshTransport>(
        static_cast<NodeId>(i), nodes, std::move(listeners[i]), endpoints,
        options));
  }
  // Form in node order: node i's dials wait in the higher-numbered peers'
  // listen backlogs until each of them accepts in its own turn.
  for (auto& mesh : meshes) {
    if (auto status = mesh->connect_mesh(); !status.is_ok()) {
      throw_local_mesh("mesh", status.message());
    }
  }
  return meshes;
}

}  // namespace dsjoin::net
