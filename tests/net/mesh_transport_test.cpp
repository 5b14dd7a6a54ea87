// MeshTransport tests: several single-process "daemons" each owning one
// end of the full mesh, exactly as the multi-process runtime uses it, but
// in-thread so the tests can reach into both ends. Raw sockets stand in
// for a peer where a test needs to write bytes no mesh would send.
#include "dsjoin/net/mesh_transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dsjoin::net {
namespace {

using namespace std::chrono_literals;

class Collector {
 public:
  void add(Frame&& frame) {
    std::lock_guard lock(mutex_);
    frames_.push_back(std::move(frame));
    cv_.notify_all();
  }

  bool wait_for(std::size_t count, std::chrono::milliseconds timeout) {
    std::unique_lock lock(mutex_);
    return cv_.wait_for(lock, timeout, [&] { return frames_.size() >= count; });
  }

  std::vector<Frame> take() {
    std::lock_guard lock(mutex_);
    return std::move(frames_);
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::vector<Frame> frames_;
};

Frame make_frame(NodeId from, NodeId to, std::uint32_t tag,
                 std::size_t payload_bytes = 16) {
  Frame f;
  f.from = from;
  f.to = to;
  f.kind = FrameKind::kTuple;
  f.piggyback_bytes = tag;
  f.payload.assign(payload_bytes, static_cast<std::uint8_t>(tag));
  return f;
}

// The meshes of one test, each polled by a thread of its own once formed,
// as a data plane polls its node's mesh. Tests reach the meshes as
// meshes[i]; destroying the set shuts every mesh down and joins its
// poller.
class Meshes {
 public:
  explicit Meshes(std::vector<std::unique_ptr<MeshTransport>> meshes)
      : meshes_(std::move(meshes)) {}
  ~Meshes() {
    for (auto& mesh : meshes_) mesh->shutdown();
    for (auto& poller : pollers_) poller.join();
  }

  std::unique_ptr<MeshTransport>& operator[](std::size_t i) { return meshes_[i]; }
  std::size_t size() const { return meshes_.size(); }
  auto begin() { return meshes_.begin(); }
  auto end() { return meshes_.end(); }

  void start_polling() {
    for (auto& mesh : meshes_) {
      pollers_.emplace_back([m = mesh.get()] {
        while (m->poll(-1.0)) {
        }
      });
    }
  }

 private:
  std::vector<std::unique_ptr<MeshTransport>> meshes_;
  std::vector<std::thread> pollers_;
};

// Binds one ephemeral listener per node and builds the endpoint list.
Meshes make_meshes(std::size_t nodes) {
  std::vector<UniqueFd> listeners;
  std::vector<Endpoint> endpoints;
  for (std::size_t i = 0; i < nodes; ++i) {
    auto listener = tcp_listen(0, 16);
    if (!listener.is_ok()) throw std::runtime_error("tcp_listen failed");
    auto port = bound_port(listener.value().get());
    if (!port.is_ok()) throw std::runtime_error("bound_port failed");
    endpoints.push_back({"127.0.0.1", port.value()});
    listeners.push_back(std::move(listener).value());
  }
  std::vector<std::unique_ptr<MeshTransport>> meshes;
  for (std::size_t i = 0; i < nodes; ++i) {
    meshes.push_back(std::make_unique<MeshTransport>(
        static_cast<NodeId>(i), nodes, std::move(listeners[i]),
        endpoints));
  }
  return Meshes(std::move(meshes));
}

// Forms all meshes concurrently (each node's connect_mesh both dials and
// accepts, so they must run in parallel — exactly like real daemons), then
// starts polling them.
std::vector<common::Status> connect_all(Meshes& meshes) {
  std::vector<common::Status> statuses(meshes.size());
  std::vector<std::thread> threads;
  threads.reserve(meshes.size());
  for (std::size_t i = 0; i < meshes.size(); ++i) {
    threads.emplace_back(
        [&, i] { statuses[i] = meshes[i]->connect_mesh(); });
  }
  for (auto& t : threads) t.join();
  meshes.start_polling();
  return statuses;
}

TEST(MeshTransport, PeerDownFollowsTheLinksLastFrame) {
  // Node 0 logs node 2's frames and node 2's death in one sequence; the
  // death must come after every frame node 2 sent, and those in order.
  constexpr std::size_t kNodes = 3;
  constexpr std::uint32_t kFrames = 200;
  constexpr std::uint32_t kDown = 0xFFFFFFFFu;
  auto meshes = make_meshes(kNodes);
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::uint32_t> events;
  meshes[0]->register_handler(0, [&](Frame&& f) {
    std::lock_guard lock(mutex);
    events.push_back(f.piggyback_bytes);
  });
  meshes[0]->set_peer_down([&](NodeId peer) {
    if (peer != 2) return;
    std::lock_guard lock(mutex);
    events.push_back(kDown);
    cv.notify_all();
  });
  meshes[1]->register_handler(1, [](Frame&&) {});
  meshes[2]->register_handler(2, [](Frame&&) {});
  for (const auto& status : connect_all(meshes)) {
    ASSERT_TRUE(status.is_ok()) << status.to_string();
  }
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(meshes[2]->send(make_frame(2, 0, i)));
  }
  meshes[2]->shutdown();
  {
    std::unique_lock lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 5s, [&] {
      return !events.empty() && events.back() == kDown;
    }));
    ASSERT_EQ(events.size(), kFrames + 1);
    for (std::uint32_t i = 0; i < kFrames; ++i) EXPECT_EQ(events[i], i);
  }
  meshes[0]->shutdown();
  meshes[1]->shutdown();
}

TEST(MeshTransport, FormsAndDeliversAllPairs) {
  constexpr std::size_t kNodes = 3;
  auto meshes = make_meshes(kNodes);
  std::vector<Collector> collectors(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    meshes[i]->register_handler(static_cast<NodeId>(i),
                                [&collectors, i](Frame&& f) {
                                  collectors[i].add(std::move(f));
                                });
  }
  for (const auto& status : connect_all(meshes)) {
    ASSERT_TRUE(status.is_ok()) << status.to_string();
  }
  for (NodeId from = 0; from < kNodes; ++from) {
    for (NodeId to = 0; to < kNodes; ++to) {
      if (from == to) continue;
      ASSERT_TRUE(meshes[from]->send(make_frame(from, to, from * 10 + to)));
    }
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    ASSERT_TRUE(collectors[i].wait_for(kNodes - 1, 5000ms)) << "node " << i;
    for (const auto& f : collectors[i].take()) {
      EXPECT_EQ(f.to, i);
      EXPECT_EQ(f.piggyback_bytes, f.from * 10 + i);
    }
    // Each node sent kNodes - 1 frames; counters are per-process (self).
    EXPECT_EQ(meshes[i]->stats_snapshot().total_frames(), kNodes - 1);
  }
  for (auto& mesh : meshes) mesh->shutdown();
}

TEST(MeshTransport, PreservesPerLinkOrder) {
  auto meshes = make_meshes(2);
  Collector at1;
  meshes[0]->register_handler(0, [](Frame&&) {});
  meshes[1]->register_handler(1,
                              [&](Frame&& f) { at1.add(std::move(f)); });
  for (const auto& status : connect_all(meshes)) {
    ASSERT_TRUE(status.is_ok()) << status.to_string();
  }
  constexpr std::uint32_t kCount = 300;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(meshes[0]->send(make_frame(0, 1, i)));
  }
  ASSERT_TRUE(at1.wait_for(kCount, 10000ms));
  const auto frames = at1.take();
  for (std::uint32_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(frames[i].piggyback_bytes, i);
  }
  for (auto& mesh : meshes) mesh->shutdown();
}

TEST(MeshTransport, RejectsBadAddresses) {
  auto meshes = make_meshes(2);
  meshes[0]->register_handler(0, [](Frame&&) {});
  meshes[1]->register_handler(1, [](Frame&&) {});
  for (const auto& status : connect_all(meshes)) {
    ASSERT_TRUE(status.is_ok()) << status.to_string();
  }
  // Out-of-range peer, send-to-self, and impersonation all rejected.
  EXPECT_EQ(meshes[0]->send(make_frame(0, 7, 1)).code(),
            common::ErrorCode::kInvalidArgument);
  EXPECT_EQ(meshes[0]->send(make_frame(0, 0, 1)).code(),
            common::ErrorCode::kInvalidArgument);
  EXPECT_EQ(meshes[0]->send(make_frame(1, 0, 1)).code(),
            common::ErrorCode::kInvalidArgument);
  for (auto& mesh : meshes) mesh->shutdown();
}

TEST(MeshTransport, PeerShutdownFiresPeerDownAndDegrades) {
  constexpr std::size_t kNodes = 3;
  auto meshes = make_meshes(kNodes);
  std::vector<Collector> collectors(kNodes);
  std::mutex down_mutex;
  std::condition_variable down_cv;
  std::vector<std::vector<NodeId>> downs(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    meshes[i]->register_handler(static_cast<NodeId>(i),
                                [&collectors, i](Frame&& f) {
                                  collectors[i].add(std::move(f));
                                });
    meshes[i]->set_peer_down([&, i](NodeId peer) {
      std::lock_guard lock(down_mutex);
      downs[i].push_back(peer);
      down_cv.notify_all();
    });
  }
  for (const auto& status : connect_all(meshes)) {
    ASSERT_TRUE(status.is_ok()) << status.to_string();
  }

  // Node 2 "dies": its sockets close, survivors see EOF on its links.
  meshes[2]->shutdown();
  {
    std::unique_lock lock(down_mutex);
    ASSERT_TRUE(down_cv.wait_for(lock, 5s, [&] {
      return downs[0].size() >= 1 && downs[1].size() >= 1;
    }));
    EXPECT_EQ(downs[0][0], 2u);
    EXPECT_EQ(downs[1][0], 2u);
  }

  // Sends to the dead peer fail as kUnavailable, and the survivors'
  // link keeps working — the graceful-degradation contract.
  EXPECT_FALSE(meshes[0]->peer_alive(2));
  EXPECT_EQ(meshes[0]->send(make_frame(0, 2, 1)).code(),
            common::ErrorCode::kUnavailable);
  ASSERT_TRUE(meshes[0]->send(make_frame(0, 1, 42)));
  ASSERT_TRUE(collectors[1].wait_for(1, 5000ms));
  EXPECT_EQ(collectors[1].take()[0].piggyback_bytes, 42u);

  meshes[0]->shutdown();
  meshes[1]->shutdown();
}

TEST(MeshTransport, MarkPeerDeadStopsSendsWithoutCallback) {
  auto meshes = make_meshes(2);
  meshes[0]->register_handler(0, [](Frame&&) {});
  meshes[1]->register_handler(1, [](Frame&&) {});
  for (const auto& status : connect_all(meshes)) {
    ASSERT_TRUE(status.is_ok()) << status.to_string();
  }
  ASSERT_TRUE(meshes[0]->peer_alive(1));
  meshes[0]->mark_peer_dead(1);
  EXPECT_FALSE(meshes[0]->peer_alive(1));
  EXPECT_EQ(meshes[0]->send(make_frame(0, 1, 1)).code(),
            common::ErrorCode::kUnavailable);
  for (auto& mesh : meshes) mesh->shutdown();
}

TEST(MeshTransport, WireFormatMatchesTcpTransportCodec) {
  // A frame encoded by the shared codec and pushed through a mesh link
  // arrives bit-identical — payload, kind, piggyback and addressing.
  auto meshes = make_meshes(2);
  Collector at1;
  meshes[0]->register_handler(0, [](Frame&&) {});
  meshes[1]->register_handler(1,
                              [&](Frame&& f) { at1.add(std::move(f)); });
  for (const auto& status : connect_all(meshes)) {
    ASSERT_TRUE(status.is_ok()) << status.to_string();
  }
  Frame frame;
  frame.from = 0;
  frame.to = 1;
  frame.kind = FrameKind::kSummary;
  frame.piggyback_bytes = 99;
  frame.payload = {0x00, 0xff, 0x10, 0x20, 0x30};
  ASSERT_TRUE(meshes[0]->send(Frame(frame)));
  ASSERT_TRUE(at1.wait_for(1, 5000ms));
  const auto got = at1.take();
  EXPECT_EQ(got[0].kind, FrameKind::kSummary);
  EXPECT_EQ(got[0].piggyback_bytes, 99u);
  EXPECT_EQ(got[0].payload, frame.payload);
  for (auto& mesh : meshes) mesh->shutdown();
}

TEST(MeshTransport, SendNeverBlocksOnAStalledPeer) {
  // Node 1's handler blocks until released, so its poller stops reading
  // and the socket buffers between the nodes fill. 32 MiB of sends from
  // node 0 must still return promptly, queued on the link; once node 1
  // resumes, every frame arrives, in order.
  constexpr std::size_t kPayload = 64 * 1024;
  constexpr std::uint32_t kFrames = 512;  // 32 MiB
  std::atomic<bool> stalled{true};
  std::mutex mutex;
  std::condition_variable cv;
  std::uint32_t received = 0;
  bool in_order = true;
  auto meshes = make_meshes(2);
  // Declared after the meshes, so it releases the handler before their
  // pollers are joined, whatever assertion ends the test.
  struct Release {
    std::atomic<bool>& stalled;
    ~Release() { resume(); }
    void resume() {
      stalled.store(false);
      stalled.notify_all();
    }
  } release{stalled};
  meshes[0]->register_handler(0, [](Frame&&) {});
  meshes[1]->register_handler(1, [&](Frame&& f) {
    stalled.wait(true);
    std::lock_guard lock(mutex);
    in_order = in_order && f.piggyback_bytes == received &&
               f.payload.size() == kPayload;
    ++received;
    cv.notify_all();
  });
  for (const auto& status : connect_all(meshes)) {
    ASSERT_TRUE(status.is_ok()) << status.to_string();
  }

  std::atomic<bool> sent{false};
  std::thread sender([&] {
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      EXPECT_TRUE(meshes[0]->send(make_frame(0, 1, i, kPayload)));
    }
    sent.store(true);
  });
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (!sent.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  const bool returned = sent.load();
  // Loopback buffers hold a few MiB; the rest waits on the link.
  const std::size_t queued = meshes[0]->max_unsent_bytes();
  release.resume();
  sender.join();
  EXPECT_TRUE(returned) << "sends blocked on a stalled peer";
  EXPECT_GT(queued, 0u);
  {
    std::unique_lock lock(mutex);
    ASSERT_TRUE(cv.wait_for(lock, 30s, [&] { return received == kFrames; }))
        << received << " of " << kFrames;
    EXPECT_TRUE(in_order);
  }
  EXPECT_EQ(meshes[0]->max_unsent_bytes(), 0u);
  EXPECT_TRUE(meshes[0]->peer_alive(1));
}

// Node 2's end of a three-node mesh whose nodes 0 and 1 are raw sockets
// held by the test, which writes hand-made wire records on them.
struct RawPeers {
  std::unique_ptr<MeshTransport> mesh;
  UniqueFd peer[2];
};

RawPeers make_raw_peers() {
  auto listener = tcp_listen(0, 16);
  if (!listener.is_ok()) throw std::runtime_error("tcp_listen failed");
  auto port = bound_port(listener.value().get());
  if (!port.is_ok()) throw std::runtime_error("bound_port failed");
  const Endpoint endpoint{"127.0.0.1", port.value()};
  RawPeers raw;
  raw.mesh = std::make_unique<MeshTransport>(
      2, 3, std::move(listener).value(),
      std::vector<Endpoint>{endpoint, endpoint, endpoint});
  for (std::uint32_t id = 0; id < 2; ++id) {
    auto fd = tcp_connect(endpoint);
    if (!fd.is_ok()) throw std::runtime_error("tcp_connect failed");
    raw.peer[id] = std::move(fd).value();
    if (!write_all(raw.peer[id].get(), reinterpret_cast<const std::uint8_t*>(&id), 4)) {
      throw std::runtime_error("mesh hello failed");
    }
  }
  if (!raw.mesh->connect_mesh().is_ok()) throw std::runtime_error("mesh failed");
  return raw;
}

// Writes a good record, `bad`, and another good record on peer 1's link.
// The link must deliver the first, then end: `bad` is corrupt and the
// record behind it is never delivered, peer 1 is reported down once, and
// peer 0's link carries on.
void expect_link_ends_at(const Frame& bad) {
  RawPeers raw = make_raw_peers();
  std::vector<std::uint32_t> delivered;
  std::vector<NodeId> downs;
  raw.mesh->register_handler(2, [&](Frame&& f) {
    delivered.push_back(f.piggyback_bytes);
  });
  raw.mesh->set_peer_down([&](NodeId peer) { downs.push_back(peer); });
  std::vector<std::uint8_t> bytes = encode_wire_frame(make_frame(1, 2, 1));
  encode_wire_frame(bad, &bytes);
  encode_wire_frame(make_frame(1, 2, 3), &bytes);
  ASSERT_TRUE(write_all(raw.peer[1].get(), bytes.data(), bytes.size()));
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (downs.empty() && std::chrono::steady_clock::now() < deadline) {
    raw.mesh->poll(0.05);
  }
  EXPECT_EQ(delivered, std::vector<std::uint32_t>{1});
  EXPECT_EQ(downs, std::vector<NodeId>{1});
  EXPECT_FALSE(raw.mesh->peer_alive(1));

  // Peer 0's link still delivers.
  bytes = encode_wire_frame(make_frame(0, 2, 4));
  ASSERT_TRUE(write_all(raw.peer[0].get(), bytes.data(), bytes.size()));
  while (delivered.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    raw.mesh->poll(0.05);
  }
  EXPECT_EQ(delivered, (std::vector<std::uint32_t>{1, 4}));
  EXPECT_TRUE(raw.mesh->peer_alive(0));
  EXPECT_EQ(downs.size(), 1u);
  raw.mesh->shutdown();
}

TEST(MeshTransport, EndsALinkWhoseRecordNamesAnotherSender) {
  // On peer 1's link, a frame that claims to come from peer 0 would move
  // peer 0's eviction clock and drain phase.
  expect_link_ends_at(make_frame(0, 2, 2));
}

TEST(MeshTransport, EndsALinkWhoseRecordNamesAnotherReceiver) {
  expect_link_ends_at(make_frame(1, 0, 2));
}

TEST(MeshTransport, EndsALinkWhoseRecordHasAnUnknownKind) {
  Frame bad = make_frame(1, 2, 2);
  bad.kind = static_cast<FrameKind>(9);
  expect_link_ends_at(bad);
}

}  // namespace
}  // namespace dsjoin::net
