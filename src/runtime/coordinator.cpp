#include "dsjoin/runtime/coordinator.hpp"

#include <algorithm>
#include <stdexcept>

#include "dsjoin/common/log.hpp"
#include "dsjoin/common/strformat.hpp"
#include "dsjoin/core/metrics.hpp"

namespace dsjoin::runtime {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point then) {
  return std::chrono::duration<double>(Clock::now() - then).count();
}

bool at_least(DaemonState state, DaemonState floor) {
  return static_cast<std::uint8_t>(state) >= static_cast<std::uint8_t>(floor);
}

}  // namespace

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)) {
  // Every daemon's CONFIG decoder runs the same gate; an invalid config
  // would only surface as daemons dying while the mesh forms.
  if (auto valid = core::validate_config(options_.config); !valid.is_ok()) {
    throw std::invalid_argument(valid.message());
  }
  auto listener = net::tcp_listen(options_.port, 64);
  if (!listener) {
    throw std::runtime_error("coordinator listen: " +
                             listener.status().message());
  }
  auto port = net::bound_port(listener.value().get());
  if (!port) {
    throw std::runtime_error("coordinator port: " + port.status().message());
  }
  listener_ = std::move(listener).value();
  port_ = port.value();
}

std::string Coordinator::admit(std::vector<Member>* members) {
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options_.admit_timeout_s);
  while (members->size() < options_.config.nodes) {
    const double left =
        std::chrono::duration<double>(deadline - Clock::now()).count();
    if (left <= 0.0) {
      return common::str_format("admitted %zu of %u daemons before timeout",
                                members->size(), options_.config.nodes);
    }
    auto fd = net::tcp_accept(listener_.get(), left);
    if (!fd) return "accept: " + fd.status().message();
    net::MsgSocket control(std::move(fd).value());
    // The daemon speaks first; a socket that does not HELLO promptly is a
    // stray connection, not a member.
    auto message = control.recv_msg(5.0);
    if (!message) {
      DSJOIN_LOG_WARN("coordinator: connection without HELLO dropped");
      continue;
    }
    if (static_cast<ControlType>(message.value().type) != ControlType::kHello) {
      DSJOIN_LOG_WARN("coordinator: first message was not HELLO; dropped");
      continue;
    }
    auto hello = HelloMsg::decode(message.value().payload);
    if (!hello) return "bad HELLO: " + hello.status().message();
    if (hello.value().protocol != kProtocolVersion) {
      // Fail fast on BOTH sides: tell the daemon why it is being rejected
      // (BYE with a reason payload) instead of letting it block on a CONFIG
      // that will never come, then abort the run.
      const std::string reason =
          common::str_format("protocol mismatch: daemon speaks v%u, we v%u",
                             hello.value().protocol, kProtocolVersion);
      std::vector<std::uint8_t> payload(reason.begin(), reason.end());
      (void)control.send_msg(static_cast<std::uint8_t>(ControlType::kBye),
                             payload);
      control.close();
      return reason;
    }
    Member member;
    member.control = std::move(control);
    member.data_endpoint = hello.value().data_endpoint;
    member.last_heard = Clock::now();
    members->push_back(std::move(member));
    DSJOIN_LOG_INFO("coordinator: admitted node %zu at %s:%u",
                    members->size() - 1,
                    members->back().data_endpoint.host.c_str(),
                    members->back().data_endpoint.port);
  }
  return {};
}

void Coordinator::poll_members(std::vector<Member>* members,
                               bool enforce_heartbeat) {
  for (std::size_t id = 0; id < members->size(); ++id) {
    Member& member = (*members)[id];
    if (!member.alive) continue;
    auto message = member.control.recv_msg(0.01);
    if (!message) {
      if (message.status().code() == common::ErrorCode::kDataLoss) {
        DSJOIN_LOG_WARN("coordinator: node %zu control link lost", id);
        member.alive = false;
        member.control.close();
      } else if (enforce_heartbeat &&
                 seconds_since(member.last_heard) >
                     options_.heartbeat_timeout_s) {
        DSJOIN_LOG_WARN("coordinator: node %zu silent for %.1fs, declared dead",
                        id, seconds_since(member.last_heard));
        member.alive = false;
        member.control.close();
      }
      continue;
    }
    member.last_heard = Clock::now();
    switch (static_cast<ControlType>(message.value().type)) {
      case ControlType::kHeartbeat: {
        auto beat = HeartbeatMsg::decode(message.value().payload);
        if (beat) member.state = beat.value().state;
        break;
      }
      case ControlType::kMetricsReport: {
        auto report = MetricsReportMsg::decode(message.value().payload);
        if (report) {
          member.report = std::move(report).value();
          member.reported = true;
        } else {
          DSJOIN_LOG_WARN("coordinator: node %zu sent a corrupt report: %s",
                          id, report.status().message().c_str());
        }
        break;
      }
      default:
        DSJOIN_LOG_WARN("coordinator: unexpected message type %u from node %zu",
                        message.value().type, id);
        break;
    }
  }
}

RunReport Coordinator::run() {
  RunReport report;
  std::vector<Member> members;
  members.reserve(options_.config.nodes);

  auto fail = [&](std::string why) {
    report.clean = false;
    report.error = std::move(why);
    for (auto& member : members) member.control.close();
    return report;
  };

  if (auto error = admit(&members); !error.empty()) return fail(error);
  report.nodes_admitted = static_cast<std::uint32_t>(members.size());

  // CONFIG: node ids are admission order; every daemon learns all data
  // endpoints so the mesh can form without further coordination.
  ConfigMsg config;
  config.config = options_.config;
  config.heartbeat_period_s = options_.heartbeat_period_s;
  config.mesh_timeout_s = options_.mesh_timeout_s;
  config.peers.reserve(members.size());
  for (const auto& member : members) {
    config.peers.push_back(member.data_endpoint);
  }
  for (std::size_t id = 0; id < members.size(); ++id) {
    config.node_id = static_cast<net::NodeId>(id);
    const auto encoded = config.encode();
    auto status = members[id].control.send_msg(
        static_cast<std::uint8_t>(ControlType::kConfig), encoded);
    if (!status.is_ok()) {
      return fail(common::str_format("CONFIG to node %zu failed: %s", id,
                                     status.message().c_str()));
    }
  }

  // Wait for the full mesh. A death here is fatal: the mesh has a hole no
  // survivor can route around during formation.
  const auto mesh_deadline =
      Clock::now() + std::chrono::duration<double>(options_.mesh_timeout_s +
                                                   options_.admit_timeout_s);
  for (;;) {
    poll_members(&members, /*enforce_heartbeat=*/false);
    const auto meshed =
        std::count_if(members.begin(), members.end(), [](const Member& m) {
          return m.alive && at_least(m.state, DaemonState::kMeshed);
        });
    if (static_cast<std::size_t>(meshed) == members.size()) break;
    const auto dead = std::count_if(members.begin(), members.end(),
                                    [](const Member& m) { return !m.alive; });
    if (dead > 0) return fail("a daemon died while the mesh was forming");
    if (Clock::now() >= mesh_deadline) {
      return fail("mesh formation timed out");
    }
  }
  DSJOIN_LOG_INFO("coordinator: mesh formed, starting the run");

  for (auto& member : members) {
    (void)member.control.send_msg(
        static_cast<std::uint8_t>(ControlType::kStart), {});
  }
  // Socket backends run in wall-clock time; makespan is START -> every
  // live node reported (what the throughput figures divide by).
  const auto started_at = Clock::now();

  // Ingest phase: run until every still-live daemon is DONE. Deaths here
  // degrade, not abort.
  const auto run_deadline =
      Clock::now() + std::chrono::duration<double>(options_.run_timeout_s);
  for (;;) {
    poll_members(&members, /*enforce_heartbeat=*/true);
    const auto live = std::count_if(members.begin(), members.end(),
                                    [](const Member& m) { return m.alive; });
    const auto done =
        std::count_if(members.begin(), members.end(), [](const Member& m) {
          return m.alive && at_least(m.state, DaemonState::kDone);
        });
    if (live == 0 || done == live) break;
    if (Clock::now() >= run_deadline) {
      return fail("run timed out before all live nodes finished ingesting");
    }
  }

  // Drain: every live daemon flushes in flight and reports. The dead list
  // frees survivors from waiting on FIN markers that will never come.
  DrainMsg drain;
  for (std::size_t id = 0; id < members.size(); ++id) {
    if (!members[id].alive) {
      drain.dead_nodes.push_back(static_cast<net::NodeId>(id));
    }
  }
  {
    const auto encoded = drain.encode();
    for (auto& member : members) {
      if (!member.alive) continue;
      (void)member.control.send_msg(
          static_cast<std::uint8_t>(ControlType::kDrain), encoded);
    }
  }
  const auto drain_deadline =
      Clock::now() + std::chrono::duration<double>(options_.drain_timeout_s);
  for (;;) {
    poll_members(&members, /*enforce_heartbeat=*/false);
    const auto pending =
        std::count_if(members.begin(), members.end(), [](const Member& m) {
          return m.alive && !m.reported;
        });
    if (pending == 0) break;
    if (Clock::now() >= drain_deadline) {
      DSJOIN_LOG_WARN("coordinator: %zu nodes never reported; proceeding",
                      static_cast<std::size_t>(pending));
      break;
    }
  }

  for (auto& member : members) {
    if (!member.alive) continue;
    (void)member.control.send_msg(static_cast<std::uint8_t>(ControlType::kBye),
                                  {});
  }
  for (auto& member : members) member.control.close();

  report.clean = true;
  report.makespan_s = seconds_since(started_at);
  finalize(members, &report);
  // A live node that never reported, or reported after its own drain timed
  // out, may be missing pairs: the run is not clean.
  std::vector<net::NodeId> partial;
  for (std::size_t id = 0; id < members.size(); ++id) {
    const Member& member = members[id];
    const bool never_reported = member.alive && !member.reported;
    const bool timed_out =
        member.reported && member.report.partial_drains != 0;
    if (never_reported) ++report.partial_drains;  // no report counted it
    if (never_reported || timed_out) {
      partial.push_back(static_cast<net::NodeId>(id));
    }
  }
  core::mark_partial_drains(partial, &report);
  return report;
}

void Coordinator::finalize(const std::vector<Member>& members,
                           RunReport* report) {
  std::vector<core::NodeReport> node_reports;
  node_reports.reserve(members.size());
  for (std::size_t id = 0; id < members.size(); ++id) {
    const Member& member = members[id];
    if (!member.alive) ++report->nodes_failed;
    if (!member.reported) continue;
    node_reports.push_back(member.report.to_node_report());
  }
  core::aggregate_node_reports(node_reports, report);
  if (options_.verify) {
    core::verify_against_schedule(options_.config, report->pairs, report);
  }
  core::finalize_derived_metrics(report);
}

}  // namespace dsjoin::runtime
