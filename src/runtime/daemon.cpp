#include "dsjoin/runtime/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <span>
#include <string>

#include "dsjoin/common/log.hpp"

namespace dsjoin::runtime {

namespace {
using Clock = std::chrono::steady_clock;
}  // namespace

common::Status NodeDaemon::run() {
  // Bind the data listener first so HELLO can advertise a real port.
  auto listener = net::tcp_listen(0, 64);
  if (!listener) return listener.status();
  auto port = net::bound_port(listener.value().get());
  if (!port) return port.status();

  auto control_fd = net::tcp_connect_retry(options_.coordinator,
                                           options_.connect_timeout_s);
  if (!control_fd) return control_fd.status();
  net::MsgSocket control(std::move(control_fd).value());

  HelloMsg hello;
  hello.data_endpoint = net::Endpoint{"127.0.0.1", port.value()};
  {
    const auto encoded = hello.encode();
    auto status = control.send_msg(
        static_cast<std::uint8_t>(ControlType::kHello), encoded);
    if (!status.is_ok()) return status;
  }

  ConfigMsg assignment;
  if (auto status = handshake(control, &assignment); !status.is_ok()) {
    return status;
  }
  node_id_ = assignment.node_id;
  nodes_ = assignment.config.nodes;
  config_ = assignment.config;
  heartbeat_period_s_ = assignment.heartbeat_period_s;
  if (node_id_ >= nodes_ || assignment.peers.size() != nodes_) {
    return common::Status(common::ErrorCode::kInvalidArgument,
                          "coordinator sent an inconsistent assignment");
  }
  DSJOIN_LOG_INFO("daemon: admitted as node %u of %u", node_id_, nodes_);

  net::MeshOptions mesh_options;
  mesh_options.connect_timeout_s = assignment.mesh_timeout_s;
  mesh_options.coalesce.max_frames = config_.coalesce_frames;
  mesh_options.coalesce.max_bytes = config_.coalesce_bytes;
  mesh_options.coalesce.linger_s = config_.coalesce_linger_s;
  auto mesh = std::make_unique<net::MeshTransport>(
      node_id_, nodes_, std::move(listener).value(), assignment.peers,
      mesh_options);
  if (auto status = mesh->connect_mesh(); !status.is_ok()) return status;
  // The schedule is a pure function of the config: regenerate it and let
  // the plane ingest only this node's slice of it.
  schedule_ = core::ArrivalSchedule::build(config_);
  plane_ = std::make_unique<DataPlane>(config_, schedule_, std::move(mesh),
                                       options_.pace);

  DaemonState state = DaemonState::kMeshed;
  send_heartbeat(control, state);
  auto last_beat = Clock::now();
  bool reported = false;

  for (;;) {
    auto message = control.recv_msg(0.05);
    if (!message) {
      if (message.status().code() == common::ErrorCode::kDataLoss) {
        return common::Status(common::ErrorCode::kUnavailable,
                              "coordinator connection lost");
      }
      // Timeout: nothing from the coordinator right now.
    } else {
      switch (static_cast<ControlType>(message.value().type)) {
        case ControlType::kStart:
          if (state == DaemonState::kMeshed) {
            state = DaemonState::kRunning;
            plane_->start();
          }
          break;
        case ControlType::kDrain: {
          auto drain = DrainMsg::decode(message.value().payload);
          // The coordinator drains only once every live node reported
          // DONE, so our arrivals are all in.
          state = DaemonState::kDraining;
          send_heartbeat(control, state);
          core::NodeHost& host = plane_->host();
          host.begin_drain(drain ? std::span<const net::NodeId>(
                                       drain.value().dead_nodes)
                                 : std::span<const net::NodeId>());
          const bool drained = host.wait_drain(options_.drain_timeout_s);
          if (!drained) {
            DSJOIN_LOG_WARN(
                "node %u: drain timed out; reporting partial results",
                node_id_);
          }
          plane_->stop();
          auto report = MetricsReportMsg::from_node_report(plane_->report());
          report.partial_drains = drained ? 0 : 1;
          const auto encoded = report.encode();
          auto status = control.send_msg(
              static_cast<std::uint8_t>(ControlType::kMetricsReport), encoded);
          if (!status.is_ok()) return status;
          reported = true;
          break;
        }
        case ControlType::kBye: {
          if (!reported) {
            // A BYE before drain may carry the coordinator's reason (e.g. a
            // protocol-version rejection) — surface it verbatim.
            const auto& payload = message.value().payload;
            const std::string reason(payload.begin(), payload.end());
            return common::Status(
                common::ErrorCode::kUnavailable,
                reason.empty() ? "coordinator hung up before drain" : reason);
          }
          return common::Status::ok();
        }
        default:
          DSJOIN_LOG_WARN("node %u: unexpected control message type %u",
                          node_id_, message.value().type);
          break;
      }
    }

    if (state == DaemonState::kRunning && plane_->arrivals_done()) {
      state = DaemonState::kDone;
      send_heartbeat(control, state);
      last_beat = Clock::now();
    }
    const auto now = Clock::now();
    if (std::chrono::duration<double>(now - last_beat).count() >=
        heartbeat_period_s_) {
      send_heartbeat(control, state);
      last_beat = now;
    }
  }
}

common::Status NodeDaemon::handshake(net::MsgSocket& control, ConfigMsg* out) {
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options_.connect_timeout_s);
  for (;;) {
    const double left =
        std::chrono::duration<double>(deadline - Clock::now()).count();
    if (left <= 0.0) {
      return common::Status(common::ErrorCode::kUnavailable,
                            "timed out waiting for CONFIG");
    }
    auto message = control.recv_msg(std::min(left, 0.2));
    if (!message) {
      if (message.status().code() == common::ErrorCode::kDataLoss) {
        return common::Status(common::ErrorCode::kUnavailable,
                              "coordinator closed during admission");
      }
      continue;
    }
    if (static_cast<ControlType>(message.value().type) == ControlType::kBye) {
      // The coordinator refused admission (protocol-version mismatch or a
      // full cluster); fail fast with its reason instead of timing out.
      const auto& payload = message.value().payload;
      const std::string reason(payload.begin(), payload.end());
      return common::Status(
          common::ErrorCode::kFailedPrecondition,
          reason.empty() ? "coordinator rejected admission" : reason);
    }
    if (static_cast<ControlType>(message.value().type) != ControlType::kConfig) {
      continue;  // stray message; CONFIG must come first
    }
    auto config = ConfigMsg::decode(message.value().payload);
    if (!config) return config.status();
    *out = std::move(config).value();
    return common::Status::ok();
  }
}

void NodeDaemon::send_heartbeat(net::MsgSocket& control, DaemonState state) {
  HeartbeatMsg beat;
  beat.node_id = node_id_;
  beat.state = state;
  if (plane_) {
    beat.local_tuples = plane_->arrivals_ingested();
    beat.pairs_discovered = plane_->pairs_discovered();
  }
  const auto encoded = beat.encode();
  (void)control.send_msg(static_cast<std::uint8_t>(ControlType::kHeartbeat),
                         encoded);
}

}  // namespace dsjoin::runtime
