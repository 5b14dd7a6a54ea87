// ThreadPool: batch semantics, exception propagation, reuse, teardown.
#include "dsjoin/common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dsjoin::common {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.worker_count(), 3u);
  std::vector<std::atomic<int>> hits(64);
  std::vector<std::function<void()>> batch;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    batch.push_back([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.run_batch(batch);
  for (auto& hit : hits) EXPECT_EQ(hit.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsEverythingOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 0u);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> ran(16);
  std::vector<std::function<void()>> batch;
  for (std::size_t i = 0; i < ran.size(); ++i) {
    batch.push_back([&ran, i] { ran[i] = std::this_thread::get_id(); });
  }
  pool.run_batch(batch);
  for (const auto& id : ran) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, EmptyBatchIsANoOp) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> batch;
  pool.run_batch(batch);  // must not deadlock or throw
}

TEST(ThreadPool, SpreadsWorkAcrossThreads) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::condition_variable second_thread;
  std::set<std::thread::id> seen;
  // Every task waits until a second thread has started one, so the caller
  // cannot drain the whole batch before a worker wakes. The shared deadline
  // bounds the test: a pool that never runs a second thread fails the
  // assertion after 10 s instead of hanging.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  std::vector<std::function<void()>> batch;
  for (int i = 0; i < 256; ++i) {
    batch.push_back([&] {
      std::unique_lock<std::mutex> lock(mutex);
      seen.insert(std::this_thread::get_id());
      second_thread.notify_all();
      second_thread.wait_until(lock, deadline,
                               [&] { return seen.size() >= 2; });
    });
  }
  pool.run_batch(batch);
  EXPECT_GE(seen.size(), 2u);
}

TEST(ThreadPool, PropagatesLowestIndexException) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> batch;
  batch.push_back([] {});
  batch.push_back([] { throw std::runtime_error("first"); });
  batch.push_back([] { throw std::logic_error("second"); });
  batch.push_back([] {});
  try {
    pool.run_batch(batch);
    FAIL() << "expected run_batch to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first");
  }
}

TEST(ThreadPool, RemainsUsableAfterAnException) {
  ThreadPool pool(2);
  std::vector<std::function<void()>> bad;
  bad.push_back([] { throw std::runtime_error("boom"); });
  EXPECT_THROW(pool.run_batch(bad), std::runtime_error);

  std::atomic<int> hits{0};
  std::vector<std::function<void()>> good;
  for (int i = 0; i < 32; ++i) good.push_back([&hits] { ++hits; });
  pool.run_batch(good);
  EXPECT_EQ(hits.load(), 32);
}

TEST(ThreadPool, ReusableAcrossManyEpochs) {
  // The parallel driver calls run_batch once per epoch — thousands of times
  // per run. Exercise the generation handshake under rapid reuse.
  ThreadPool pool(4);
  std::atomic<std::uint64_t> total{0};
  for (int epoch = 0; epoch < 500; ++epoch) {
    std::vector<std::function<void()>> batch;
    const int tasks = 1 + epoch % 7;
    for (int i = 0; i < tasks; ++i) {
      batch.push_back([&total] { total.fetch_add(1); });
    }
    pool.run_batch(batch);
  }
  std::uint64_t expected = 0;
  for (int epoch = 0; epoch < 500; ++epoch) expected += 1 + epoch % 7;
  EXPECT_EQ(total.load(), expected);
}

TEST(ThreadPool, DestructorJoinsStress) {
  // Construct/destroy pools in a tight loop, with and without work, to
  // shake out teardown races (intended to run under TSan in CI).
  for (int round = 0; round < 100; ++round) {
    ThreadPool pool(1 + round % 4);
    if (round % 2 == 0) {
      std::atomic<int> hits{0};
      std::vector<std::function<void()>> batch;
      for (int i = 0; i < 8; ++i) batch.push_back([&hits] { ++hits; });
      pool.run_batch(batch);
      EXPECT_EQ(hits.load(), 8);
    }
    // Odd rounds: destroy immediately while workers are still parked.
  }
}

TEST(ThreadPool, CallerParticipatesInDraining) {
  // With 1 worker and tasks that record their thread, both the worker and
  // the caller should appear for a large enough batch.
  ThreadPool pool(1);
  std::mutex mutex;
  std::set<std::thread::id> seen;
  std::vector<std::function<void()>> batch;
  for (int i = 0; i < 128; ++i) {
    batch.push_back([&] {
      volatile std::uint64_t sink = 0;
      for (int j = 0; j < 20000; ++j) sink = sink + static_cast<std::uint64_t>(j);
      std::lock_guard<std::mutex> lock(mutex);
      seen.insert(std::this_thread::get_id());
    });
  }
  pool.run_batch(batch);
  EXPECT_TRUE(seen.count(std::this_thread::get_id()) == 1 || seen.size() >= 2);
}

}  // namespace
}  // namespace dsjoin::common
