// DataPlane tests: N planes over one in-process mesh, driven the way
// run_inprocess_tcp drives them, with a hand on each plane's start so a
// test can hold one node back.
#include "dsjoin/runtime/data_plane.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "dsjoin/core/experiment.hpp"

namespace dsjoin::runtime {
namespace {

using namespace std::chrono_literals;

std::vector<std::unique_ptr<DataPlane>> make_planes(
    const core::SystemConfig& config, const core::ArrivalSchedule& schedule) {
  net::CoalesceOptions coalesce;
  coalesce.max_frames = config.coalesce_frames;
  auto meshes = net::form_local_mesh(config.nodes, coalesce);
  std::vector<std::unique_ptr<DataPlane>> planes;
  for (auto& mesh : meshes) {
    planes.push_back(std::make_unique<DataPlane>(config, schedule, std::move(mesh)));
  }
  return planes;
}

/// Drains every plane, stops it and returns the verified run result.
core::ExperimentResult finish(const core::SystemConfig& config,
                              const core::ArrivalSchedule& schedule,
                              std::vector<std::unique_ptr<DataPlane>>& planes) {
  for (auto& plane : planes) plane->wait_arrivals();
  for (auto& plane : planes) plane->host().begin_drain({});
  core::ExperimentResult result;
  result.clean = true;
  for (auto& plane : planes) EXPECT_TRUE(plane->host().wait_drain(30.0));
  std::vector<core::NodeReport> reports;
  for (auto& plane : planes) {
    plane->stop();
    reports.push_back(plane->report());
  }
  core::aggregate_node_reports(reports, &result);
  core::verify_against_schedule(config, schedule, &result);
  core::finalize_derived_metrics(&result);
  return result;
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

TEST(DataPlane, OneThreadPerNodeAndNoneInTheMesh) {
  core::SystemConfig config;
  config.nodes = 4;
  config.queries.front().policy = core::PolicyKind::kRoundRobin;
  config.tuples_per_node = 200;
  const auto schedule = core::ArrivalSchedule::build(config);
  // A first thread lets a sanitizer runtime start its helper thread, if it
  // has one, before the baseline is read.
  std::thread([] {}).join();
  const std::size_t before = settled_thread_count(std::nullopt, 5000ms);
  {
    // Four meshes, formed from this thread in node order, start none.
    auto planes = make_planes(config, schedule);
    EXPECT_EQ(thread_count(), before);
    for (auto& plane : planes) plane->start();
    EXPECT_EQ(thread_count() - before, config.nodes);
    const auto result = finish(config, schedule, planes);
    EXPECT_TRUE(result.clean) << result.error;
    EXPECT_EQ(result.false_pairs, 0u);
  }
  EXPECT_EQ(settled_thread_count(before, 5000ms), before);
}

TEST(DataPlane, StopsIngestingWhileAPeerStallsAndFinishesAfterIt) {
  // BASE forwards every arrival of node 0 to node 1. While node 1's plane
  // has not started, nothing reads node 1's sockets: the socket buffers
  // fill, then node 0's queue of unsent bytes passes the admission bound
  // and node 0 stops ingesting, with much of its slice left. Once node 1
  // runs, both finish, and BASE's result is exact.
  core::SystemConfig config;
  config.nodes = 2;
  config.queries.front().policy = core::PolicyKind::kBase;
  config.queries.front().join_half_width_s = 0.5;
  config.tuples_per_node = 100000;  // ~8 MB of forwards from node 0
  config.max_backlog_s = 0.0;
  const auto schedule = core::ArrivalSchedule::build(config);
  const std::uint64_t slice = 2 * config.tuples_per_node;
  auto planes = make_planes(config, schedule);
  planes[0]->start();

  // Wait until node 0's progress holds still for 200 ms.
  std::uint64_t ingested = planes[0]->arrivals_ingested();
  auto still_since = std::chrono::steady_clock::now();
  const auto deadline = still_since + 60s;
  while (!planes[0]->arrivals_done() &&
         std::chrono::steady_clock::now() < deadline &&
         std::chrono::steady_clock::now() - still_since < 200ms) {
    std::this_thread::sleep_for(10ms);
    const std::uint64_t now_ingested = planes[0]->arrivals_ingested();
    if (now_ingested != ingested) {
      ingested = now_ingested;
      still_since = std::chrono::steady_clock::now();
    }
  }
  EXPECT_FALSE(planes[0]->arrivals_done());
  EXPECT_GT(ingested, 0u);
  EXPECT_LT(ingested, slice);
  EXPECT_GT(planes[0]->mesh().max_unsent_bytes(), DataPlane::kAdmissionBytes);

  planes[1]->start();
  const auto result = finish(config, schedule, planes);
  EXPECT_TRUE(result.clean) << result.error;
  EXPECT_EQ(result.total_arrivals, 2 * slice);
  EXPECT_EQ(result.false_pairs, 0u);
  EXPECT_GT(result.exact_pairs, 0u);
  EXPECT_EQ(result.reported_pairs, result.exact_pairs);
}

}  // namespace
}  // namespace dsjoin::runtime
