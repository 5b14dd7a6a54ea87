// MeshTransport tests: several single-process "daemons" each owning one
// end of the full mesh, exactly as the multi-process runtime uses it, but
// in-thread so the tests can reach into both ends.
#include "dsjoin/net/mesh_transport.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
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

Frame make_frame(NodeId from, NodeId to, std::uint32_t tag) {
  Frame f;
  f.from = from;
  f.to = to;
  f.kind = FrameKind::kTuple;
  f.piggyback_bytes = tag;
  f.payload.assign(16, static_cast<std::uint8_t>(tag));
  return f;
}

// Binds one ephemeral listener per node, builds the endpoint list, and
// forms all meshes concurrently (each node's connect_mesh both dials and
// accepts, so they must run in parallel — exactly like real daemons).
std::vector<std::unique_ptr<MeshTransport>> make_meshes(std::size_t nodes) {
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
  return meshes;
}

std::vector<common::Status> connect_all(
    std::vector<std::unique_ptr<MeshTransport>>& meshes) {
  std::vector<common::Status> statuses(meshes.size());
  std::vector<std::thread> threads;
  threads.reserve(meshes.size());
  for (std::size_t i = 0; i < meshes.size(); ++i) {
    threads.emplace_back(
        [&, i] { statuses[i] = meshes[i]->connect_mesh(); });
  }
  for (auto& t : threads) t.join();
  return statuses;
}

// Threads of this process right now.
std::size_t thread_count() {
  std::size_t count = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

// A joined thread can outlive its join in /proc for a moment. Polls every
// 10 ms until the count reaches `expected` (or, with no expectation, reads
// the same three times running) or the timeout passes, then returns it.
std::size_t settled_thread_count(std::optional<std::size_t> expected,
                                 std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  std::size_t count = thread_count();
  int unchanged = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    if (expected ? count == *expected : unchanged == 2) break;
    std::this_thread::sleep_for(10ms);
    const std::size_t again = thread_count();
    unchanged = again == count ? unchanged + 1 : 0;
    count = again;
  }
  return count;
}

TEST(MeshTransport, OneReceiverThreadPerNode) {
  constexpr std::size_t kNodes = 4;
  // A first thread lets a sanitizer runtime start its helper thread, if it
  // has one, before the baseline is read.
  std::thread([] {}).join();
  const std::size_t before = settled_thread_count(std::nullopt, 5000ms);
  auto meshes = make_meshes(kNodes);
  // Formed from this thread, in node order: each dial waits in the peer's
  // listen backlog until that peer accepts, so no helper threads are
  // started that the count could see.
  for (auto& mesh : meshes) {
    const auto status = mesh->connect_mesh();
    ASSERT_TRUE(status.is_ok()) << status.to_string();
  }
  EXPECT_EQ(thread_count() - before, kNodes);
  for (auto& mesh : meshes) mesh->stop();
  for (auto& mesh : meshes) mesh->shutdown();
  EXPECT_EQ(settled_thread_count(before, 5000ms), before);
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

}  // namespace
}  // namespace dsjoin::net
