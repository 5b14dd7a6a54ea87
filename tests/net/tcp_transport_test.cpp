#include "dsjoin/net/tcp_transport.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <thread>

namespace dsjoin::net {
namespace {

// Every transport binds ephemeral listeners: no fixed port ranges, so
// parallel test processes — or several transports in this one — can never
// collide, and nothing needs retry logic.
TcpTransport make_transport(std::size_t nodes) { return TcpTransport(nodes); }

Frame make_frame(NodeId from, NodeId to, std::uint32_t tag) {
  Frame f;
  f.from = from;
  f.to = to;
  f.kind = FrameKind::kTuple;
  f.piggyback_bytes = tag;  // reused as a sequence tag by the tests
  f.payload.assign(32, static_cast<std::uint8_t>(tag));
  return f;
}

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

TEST(TcpTransport, DeliversFramesBothDirections) {
  TcpTransport transport = make_transport(2);
  Collector at0, at1;
  transport.register_handler(0, [&](Frame&& f) { at0.add(std::move(f)); });
  transport.register_handler(1, [&](Frame&& f) { at1.add(std::move(f)); });
  ASSERT_TRUE(transport.send(make_frame(0, 1, 7)));
  ASSERT_TRUE(transport.send(make_frame(1, 0, 9)));
  ASSERT_TRUE(at1.wait_for(1, std::chrono::seconds(5)));
  ASSERT_TRUE(at0.wait_for(1, std::chrono::seconds(5)));
  const auto f1 = at1.take();
  EXPECT_EQ(f1[0].piggyback_bytes, 7u);
  EXPECT_EQ(f1[0].from, 0u);
  EXPECT_EQ(f1[0].payload.size(), 32u);
  transport.shutdown();
}

TEST(TcpTransport, PreservesPerLinkOrder) {
  TcpTransport transport = make_transport(2);
  Collector at1;
  transport.register_handler(0, [](Frame&&) {});
  transport.register_handler(1, [&](Frame&& f) { at1.add(std::move(f)); });
  constexpr std::uint32_t kCount = 500;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(transport.send(make_frame(0, 1, i)));
  }
  ASSERT_TRUE(at1.wait_for(kCount, std::chrono::seconds(10)));
  const auto frames = at1.take();
  for (std::uint32_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(frames[i].piggyback_bytes, i);
  }
  transport.shutdown();
}

TEST(TcpTransport, FullMeshAllPairs) {
  constexpr std::size_t kNodes = 4;
  TcpTransport transport = make_transport(kNodes);
  std::vector<Collector> collectors(kNodes);
  for (NodeId id = 0; id < kNodes; ++id) {
    transport.register_handler(
        id, [&collectors, id](Frame&& f) { collectors[id].add(std::move(f)); });
  }
  for (NodeId from = 0; from < kNodes; ++from) {
    for (NodeId to = 0; to < kNodes; ++to) {
      if (from != to) {
        ASSERT_TRUE(transport.send(make_frame(from, to, from * 10 + to)));
      }
    }
  }
  for (NodeId id = 0; id < kNodes; ++id) {
    ASSERT_TRUE(collectors[id].wait_for(kNodes - 1, std::chrono::seconds(5)))
        << "node " << id;
  }
  EXPECT_EQ(transport.stats().total_frames(), kNodes * (kNodes - 1));
  transport.shutdown();
}

TEST(TcpTransport, RejectsBadAddressesAndSurvivesShutdown) {
  TcpTransport transport = make_transport(2);
  transport.register_handler(0, [](Frame&&) {});
  transport.register_handler(1, [](Frame&&) {});
  EXPECT_FALSE(transport.send(make_frame(0, 5, 1)));
  EXPECT_FALSE(transport.send(make_frame(0, 0, 1)));
  transport.shutdown();
  transport.shutdown();  // idempotent
  EXPECT_FALSE(transport.send(make_frame(0, 1, 1)));
}

TEST(TcpTransport, ConcurrentSendersDoNotInterleaveFrames) {
  TcpTransport transport = make_transport(3);
  Collector at2;
  transport.register_handler(0, [](Frame&&) {});
  transport.register_handler(1, [](Frame&&) {});
  transport.register_handler(2, [&](Frame&& f) { at2.add(std::move(f)); });
  constexpr std::uint32_t kPer = 200;
  std::thread a([&] {
    for (std::uint32_t i = 0; i < kPer; ++i) {
      ASSERT_TRUE(transport.send(make_frame(0, 2, i)));
    }
  });
  std::thread b([&] {
    for (std::uint32_t i = 0; i < kPer; ++i) {
      ASSERT_TRUE(transport.send(make_frame(1, 2, 1000 + i)));
    }
  });
  a.join();
  b.join();
  ASSERT_TRUE(at2.wait_for(2 * kPer, std::chrono::seconds(10)));
  // Each frame arrived intact (payload bytes consistent with its tag).
  for (const auto& f : at2.take()) {
    const auto expected = static_cast<std::uint8_t>(f.piggyback_bytes);
    for (std::uint8_t byte : f.payload) EXPECT_EQ(byte, expected);
  }
  transport.shutdown();
}

TEST(TcpTransport, StartStopStress) {
  // 100 construct/teardown cycles with traffic in flight while shutdown()
  // runs — the stop()-during-receive race this is designed to catch shows
  // up under TSan (CI runs this binary in the thread-sanitizer job).
  // Each round uses fresh ports so lingering TIME_WAIT sockets from the
  // previous round cannot fail the bind.
  for (int round = 0; round < 100; ++round) {
    TcpTransport transport = make_transport(3);
    Collector at1;
    // Register *after* receivers are live (the historical handler race).
    transport.register_handler(0, [](Frame&&) {});
    transport.register_handler(1, [&](Frame&& f) { at1.add(std::move(f)); });
    transport.register_handler(2, [](Frame&&) {});

    std::thread sender([&] {
      // Keep sending until the transport rejects: exercises send() racing
      // shutdown()'s socket teardown.
      for (std::uint32_t i = 0;; ++i) {
        if (!transport.send(make_frame(0, 1, i))) break;
        if (!transport.send(make_frame(2, 1, 1000 + i))) break;
      }
    });
    if (round % 4 == 0) {
      // Sometimes wait for real traffic first, sometimes tear down hot.
      (void)at1.wait_for(4, std::chrono::seconds(5));
    }
    transport.shutdown();
    sender.join();
    // Whatever arrived must be intact.
    for (const auto& f : at1.take()) {
      const auto expected = static_cast<std::uint8_t>(f.piggyback_bytes);
      for (std::uint8_t byte : f.payload) ASSERT_EQ(byte, expected);
    }
  }
}

TEST(TcpTransport, ConcurrentTransportsCoexist) {
  // Two independent meshes in one process: ephemeral binding means they
  // can never fight over ports, and frames stay inside their own mesh.
  TcpTransport first = make_transport(2);
  TcpTransport second = make_transport(2);
  Collector first_at1, second_at1;
  first.register_handler(0, [](Frame&&) {});
  first.register_handler(1, [&](Frame&& f) { first_at1.add(std::move(f)); });
  second.register_handler(0, [](Frame&&) {});
  second.register_handler(1, [&](Frame&& f) { second_at1.add(std::move(f)); });
  ASSERT_TRUE(first.send(make_frame(0, 1, 11)));
  ASSERT_TRUE(second.send(make_frame(0, 1, 22)));
  ASSERT_TRUE(first_at1.wait_for(1, std::chrono::seconds(5)));
  ASSERT_TRUE(second_at1.wait_for(1, std::chrono::seconds(5)));
  EXPECT_EQ(first_at1.take()[0].piggyback_bytes, 11u);
  EXPECT_EQ(second_at1.take()[0].piggyback_bytes, 22u);
  first.shutdown();
  second.shutdown();
}

TEST(TcpTransport, RejectsAFixedPortOrALinkRate) {
  // Every listener is ephemeral and loopback models no link rate; the two
  // parameters remain only as zeros.
  EXPECT_THROW(TcpTransport(2, 40000), std::invalid_argument);
  EXPECT_THROW(TcpTransport(2, 0, 1000.0), std::invalid_argument);
}

TEST(TcpTransport, BacklogDisabledReadsZero) {
  TcpTransport transport = make_transport(2);
  transport.register_handler(0, [](Frame&&) {});
  transport.register_handler(1, [](Frame&&) {});
  ASSERT_TRUE(transport.send(make_frame(0, 1, 1)));
  EXPECT_EQ(transport.send_backlog_seconds(0), 0.0);
  EXPECT_EQ(transport.send_backlog_seconds(1), 0.0);
  transport.shutdown();
}

TEST(TcpTransport, PerNodeStatsSumToTransportTotals) {
  // The per-node attribution contract: the union of every node's sent
  // counters is the transport's global counters — what lets the engine
  // aggregate NodeReports with merge_traffic = true on this backend.
  constexpr std::size_t kNodes = 3;
  TcpTransport transport = make_transport(kNodes);
  std::vector<Collector> collectors(kNodes);
  for (NodeId id = 0; id < kNodes; ++id) {
    transport.register_handler(
        id, [&collectors, id](Frame&& f) { collectors[id].add(std::move(f)); });
  }
  // Uneven per-node loads so a symmetric bug cannot hide.
  std::size_t expected_total = 0;
  for (NodeId from = 0; from < kNodes; ++from) {
    for (std::uint32_t i = 0; i <= from * 3; ++i) {
      const NodeId to = (from + 1 + i % (kNodes - 1)) % kNodes;
      ASSERT_TRUE(transport.send(make_frame(from, to, i)));
      ++expected_total;
    }
  }
  const auto totals = transport.stats_snapshot();
  EXPECT_EQ(totals.total_frames(), expected_total);
  TrafficCounters summed;
  for (NodeId id = 0; id < kNodes; ++id) {
    summed.merge(transport.node_stats_snapshot(id));
  }
  EXPECT_EQ(summed.frames_by_kind, totals.frames_by_kind);
  EXPECT_EQ(summed.bytes_by_kind, totals.bytes_by_kind);
  EXPECT_EQ(summed.piggyback_bytes, totals.piggyback_bytes);
  EXPECT_EQ(summed.wire_records, totals.wire_records);
  EXPECT_EQ(summed.header_bytes_saved, totals.header_bytes_saved);
  // Coalescing off (default options): one wire record per logical frame.
  EXPECT_EQ(totals.wire_records, expected_total);
  EXPECT_EQ(totals.header_bytes_saved, 0u);
  transport.shutdown();
}

TEST(TcpTransport, CoalescedSendsPreserveOrderAndSaveHeaderBytes) {
  CoalesceOptions coalesce;
  coalesce.max_frames = 8;
  coalesce.linger_s = 3600.0;  // only the frame budget flushes here
  TcpTransport transport(2, 0, 0.0, coalesce);
  Collector at1;
  transport.register_handler(0, [](Frame&&) {});
  // A batch handler receives whole decoded records; frames stay in order.
  transport.register_batch_handler(1, [&](std::vector<Frame>&& frames) {
    for (Frame& f : frames) at1.add(std::move(f));
  });
  constexpr std::uint32_t kCount = 64;
  for (std::uint32_t i = 0; i < kCount; ++i) {
    ASSERT_TRUE(transport.send(make_frame(0, 1, i)));
  }
  ASSERT_TRUE(at1.wait_for(kCount, std::chrono::seconds(10)));
  const auto frames = at1.take();
  for (std::uint32_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(frames[i].piggyback_bytes, i);
  }
  const auto stats = transport.stats_snapshot();
  // Logical accounting is batching-blind; the physical record count is not.
  EXPECT_EQ(stats.total_frames(), kCount);
  EXPECT_EQ(stats.wire_records, kCount / 8);
  EXPECT_EQ(stats.header_bytes_saved, (kCount / 8) * (8u * 8u - 15u));
  transport.shutdown();
}

TEST(TcpTransport, ControlFramesFlushPendingCoalescedFrames) {
  CoalesceOptions coalesce;
  coalesce.max_frames = 100;
  coalesce.linger_s = 3600.0;  // frames would wait forever without the FIN
  TcpTransport transport(2, 0, 0.0, coalesce);
  Collector at1;
  transport.register_handler(0, [](Frame&&) {});
  transport.register_handler(1, [&](Frame&& f) { at1.add(std::move(f)); });
  for (std::uint32_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(transport.send(make_frame(0, 1, i)));
  }
  Frame fin = make_frame(0, 1, 99);
  fin.kind = FrameKind::kControl;
  ASSERT_TRUE(transport.send(std::move(fin)));
  // The control frame forced the buffer out: all six frames arrive, the
  // five buffered tuples strictly before it.
  ASSERT_TRUE(at1.wait_for(6, std::chrono::seconds(5)));
  const auto frames = at1.take();
  ASSERT_EQ(frames.size(), 6u);
  EXPECT_EQ(frames[5].kind, FrameKind::kControl);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(frames[i].piggyback_bytes, i);
  }
  transport.shutdown();
}

TEST(TcpTransport, RegisterHandlerWhileTrafficFlows) {
  // A handler registered late (while a peer is already sending) must not
  // race the receiver thread; frames that beat the registration are
  // dropped, frames after it are delivered.
  TcpTransport transport = make_transport(2);
  transport.register_handler(0, [](Frame&&) {});
  std::atomic<bool> stop{false};
  std::thread sender([&] {
    for (std::uint32_t i = 0; !stop.load(); ++i) {
      if (!transport.send(make_frame(0, 1, i))) break;
    }
  });
  Collector at1;
  transport.register_handler(1, [&](Frame&& f) { at1.add(std::move(f)); });
  EXPECT_TRUE(at1.wait_for(1, std::chrono::seconds(5)));
  stop.store(true);
  sender.join();
  transport.shutdown();
}

}  // namespace
}  // namespace dsjoin::net
