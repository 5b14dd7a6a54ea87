#include "dsjoin/net/tcp_transport.hpp"

#include <stdexcept>

#include "dsjoin/common/strformat.hpp"

namespace dsjoin::net {

namespace {

[[noreturn]] void fail(const char* what, const std::string& detail) {
  throw std::runtime_error(
      common::str_format("TcpTransport: %s: %s", what, detail.c_str()));
}

}  // namespace

TcpTransport::TcpTransport(std::size_t nodes, std::uint16_t base_port,
                           double link_rate_bytes_per_s,
                           CoalesceOptions coalesce) {
  if (base_port != 0 || link_rate_bytes_per_s != 0.0) {
    throw std::invalid_argument(
        "TcpTransport: base_port and link_rate_bytes_per_s must be 0");
  }
  std::vector<UniqueFd> listeners;
  std::vector<Endpoint> endpoints;
  for (std::size_t i = 0; i < nodes; ++i) {
    // Node j holds j queued dials before it accepts any (below).
    auto fd = tcp_listen(0, static_cast<int>(nodes));
    if (!fd) fail("listen", fd.status().message());
    auto port = bound_port(fd.value().get());
    if (!port) fail("getsockname", port.status().message());
    endpoints.push_back(Endpoint{"127.0.0.1", port.value()});
    listeners.push_back(std::move(fd).value());
  }
  MeshOptions options;
  options.coalesce = coalesce;
  meshes_.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    meshes_.push_back(std::make_unique<MeshTransport>(
        static_cast<NodeId>(i), nodes, std::move(listeners[i]), endpoints,
        options));
  }
  // Form in node order: node i's dials wait in the higher-numbered peers'
  // listen backlogs until each of them accepts in its own turn.
  for (auto& mesh : meshes_) {
    if (auto status = mesh->connect_mesh(); !status.is_ok()) {
      fail("mesh", status.message());
    }
  }
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::shutdown() {
  // Stop all before joining any, so the receivers wind down together
  // instead of one wake-up at a time.
  for (auto& mesh : meshes_) mesh->stop();
  for (auto& mesh : meshes_) mesh->shutdown();
}

void TcpTransport::register_handler(NodeId node, DeliveryHandler handler) {
  meshes_.at(node)->register_handler(node, std::move(handler));
}

void TcpTransport::register_batch_handler(NodeId node,
                                          BatchDeliveryHandler handler) {
  meshes_.at(node)->set_batch_handler(std::move(handler));
}

common::Status TcpTransport::send(Frame&& frame) {
  if (frame.from >= meshes_.size()) {
    return common::Status(common::ErrorCode::kInvalidArgument, "bad address");
  }
  return meshes_[frame.from]->send(std::move(frame));
}

const TrafficCounters& TcpTransport::stats() const noexcept {
  merged_ = stats_snapshot();
  return merged_;
}

TrafficCounters TcpTransport::stats_snapshot() const {
  TrafficCounters merged;
  for (const auto& mesh : meshes_) merged.merge(mesh->stats_snapshot());
  return merged;
}

}  // namespace dsjoin::net
