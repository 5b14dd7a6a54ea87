#include "dsjoin/net/tcp_transport.hpp"

#include <stdexcept>

namespace dsjoin::net {

TcpTransport::TcpTransport(std::size_t nodes, std::uint16_t base_port,
                           double link_rate_bytes_per_s,
                           CoalesceOptions coalesce) {
  if (base_port != 0 || link_rate_bytes_per_s != 0.0) {
    throw std::invalid_argument(
        "TcpTransport: base_port and link_rate_bytes_per_s must be 0");
  }
  meshes_ = form_local_mesh(nodes, coalesce);
  pollers_.reserve(nodes);
  for (auto& mesh : meshes_) {
    pollers_.emplace_back([m = mesh.get()] {
      while (m->poll(-1.0)) {
      }
    });
  }
}

TcpTransport::~TcpTransport() { shutdown(); }

void TcpTransport::shutdown() {
  for (auto& mesh : meshes_) mesh->shutdown();
  for (auto& poller : pollers_) {
    if (poller.joinable()) poller.join();
  }
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
