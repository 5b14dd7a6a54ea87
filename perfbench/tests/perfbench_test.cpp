// Self-tests of the benchmark's own arithmetic and drivers.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "metrics.hpp"
#include "reference.hpp"
#include "runs.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

Span make_span(const char* name, std::int64_t start_ms, std::int64_t end_ms,
               std::int64_t parent, std::uint32_t thread) {
  Span span;
  span.name = name;
  span.start_ns = start_ms * 1'000'000;
  span.end_ns = end_ms * 1'000'000;
  span.parent = parent;
  span.thread = thread;
  return span;
}

TEST(SpanSelfTime, SubtractsSameThreadChildrenOnly) {
  const std::vector<Span> spans = {
      make_span("run", 0, 100, kNoParent, 0),  // 0
      make_span("ingest", 10, 40, 0, 0),       // 1: child of run
      make_span("send", 15, 25, 1, 0),         // 2: child of ingest
      make_span("send", 30, 35, 1, 0),         // 3: child of ingest
      make_span("deliver", 20, 90, 0, 1),      // 4: cross-thread child of run
      make_span("send", 50, 60, 4, 1),         // 5: child of deliver
  };
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[0], 0.100 - 0.030);  // only the same-thread ingest
  EXPECT_DOUBLE_EQ(self[1], 0.030 - 0.010 - 0.005);
  EXPECT_DOUBLE_EQ(self[2], 0.010);
  EXPECT_DOUBLE_EQ(self[4], 0.070 - 0.010);

  const auto totals = totals_by_name(spans);
  EXPECT_EQ(totals.at("send").count, 3u);
  EXPECT_DOUBLE_EQ(totals.at("send").total_s, 0.025);
  EXPECT_DOUBLE_EQ(totals.at("run").self_s, 0.070);
  EXPECT_DOUBLE_EQ(interval_s(spans, "ingest", "send"), 0.050);
  EXPECT_DOUBLE_EQ(interval_s(spans, "missing", "send"), 0.0);
}

TEST(SpanSelfTime, TracerRecordsParentsPerThread) {
  Tracer tracer;
  {
    Tracer::Scope run(tracer, "run");
    tracer.set_root_to_current();
    { Tracer::Scope child(tracer, "child"); }
    std::thread worker([&] {
      Tracer::Scope delivery(tracer, "delivery");
      Tracer::Scope nested(tracer, "nested");
    });
    worker.join();
  }
  const std::vector<Span> spans = tracer.collect();
  ASSERT_EQ(spans.size(), 4u);
  std::map<std::string, const Span*> by_name;
  for (const Span& span : spans) by_name[span.name] = &span;
  const auto index = [&](const char* name) {
    return static_cast<std::int64_t>(by_name.at(name) - spans.data());
  };
  EXPECT_EQ(by_name["run"]->parent, kNoParent);
  EXPECT_EQ(by_name["child"]->parent, index("run"));
  // The worker had no open span: its first span hangs under the root.
  EXPECT_EQ(by_name["delivery"]->parent, index("run"));
  EXPECT_NE(by_name["delivery"]->thread, by_name["run"]->thread);
  EXPECT_EQ(by_name["nested"]->parent, index("delivery"));
  const std::vector<double> self = self_times(spans);
  EXPECT_DOUBLE_EQ(self[index("run")],
                   by_name["run"]->duration_s() - by_name["child"]->duration_s());
}

TEST(RunTimingSplit, SocketSetupIsTheCallOutsideTheMakespan) {
  const RunTiming timing = socket_timing(/*call_s=*/2.5, /*makespan_s=*/1.0);
  EXPECT_DOUBLE_EQ(timing.window_s, 1.0);
  EXPECT_DOUBLE_EQ(timing.setup_s, 1.5);
}

TEST(RunTimingSplit, SimulatorSetupIsTheConstructor) {
  const Clock::time_point t0{};
  const RunTiming timing =
      sim_timing(t0, t0 + std::chrono::milliseconds(8),
                 t0 + std::chrono::milliseconds(1008));
  EXPECT_DOUBLE_EQ(timing.setup_s, 0.008);
  EXPECT_DOUBLE_EQ(timing.window_s, 1.0);
}

TEST(ReferenceClock, SlowdownIsTheGeometricMeanOfTimeRatios) {
  const std::array<double, ReferenceWork::kKernels> nominal = {0.004, 0.003,
                                                               0.002};
  EXPECT_DOUBLE_EQ(slowdown_of(nominal, nominal), 1.0);
  EXPECT_DOUBLE_EQ(slowdown_of({0.008, 0.006, 0.004}, nominal), 2.0);
  // One kernel twice as slow, one twice as fast: no net slowdown.
  EXPECT_NEAR(slowdown_of({0.008, 0.0015, 0.002}, nominal), 1.0, 1e-12);
}

TEST(ReferenceClock, MeasuresAPlausibleSlowdown) {
  ReferenceWork reference;
  const double first = reference.slowdown();
  const double second = reference.slowdown();
  for (const double slowdown : {first, second}) {
    EXPECT_TRUE(std::isfinite(slowdown));
    // Sanitizers and loaded hosts slow it down; nothing makes it 100x.
    EXPECT_GT(slowdown, 0.05);
  }
  EXPECT_EQ(reference.resident_bytes(), std::size_t{20} << 20);
}

// A small schedule of every workload's shape: the production run and the
// traced twin agree on their deterministic outputs, and the timing split
// covers the run.
class TinyWorkload : public ::testing::TestWithParam<const char*> {};

TEST_P(TinyWorkload, TracedTwinReproducesTheProductionRun) {
  Workload workload = *find_workload(GetParam());
  workload.tuples_per_node = 150;
  const auto config = make_config(workload, 7);

  const auto before = Clock::now();
  const RunOutcome plain = run_untraced(workload, config);
  const double call_s =
      std::chrono::duration<double>(Clock::now() - before).count();
  ASSERT_TRUE(plain.result.clean) << plain.result.error;
  EXPECT_GT(plain.timing.window_s, 0.0);
  EXPECT_GT(plain.timing.setup_s, 0.0);
  EXPECT_LE(plain.timing.setup_s + plain.timing.window_s, call_s);
  if (workload.backend != dsjoin::core::Backend::kSim) {
    EXPECT_DOUBLE_EQ(plain.timing.window_s, plain.result.makespan_s);
  }

  const RunOutcome traced = run_traced(workload, config);
  EXPECT_EQ(traced.result.reported_pairs, plain.result.reported_pairs);
  EXPECT_EQ(traced.result.exact_pairs, plain.result.exact_pairs);
  EXPECT_EQ(traced.result.epsilon, plain.result.epsilon);
  EXPECT_EQ(traced.result.traffic.frames(dsjoin::net::FrameKind::kTuple),
            plain.result.traffic.frames(dsjoin::net::FrameKind::kTuple));
  EXPECT_EQ(traced.counts.send_failures, 0u);

  // Every per-layer metric the run reports is one BENCHMARK.json declares.
  std::set<std::string> declared;
  for (const MetricDef& def : per_layer_metrics()) declared.insert(def.name);
  for (const auto& [name, value] : layer_values(traced)) {
    EXPECT_TRUE(declared.count(name)) << name;
    EXPECT_GE(value, 0.0) << name;
  }
  const auto values = layer_values(traced);
  EXPECT_GT(values.at("net.send_calls"), 0.0);
  EXPECT_GT(values.at("core.node_host.ingest_self_s"), 0.0);
  EXPECT_GT(values.at("runtime.driver_self_s"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, TinyWorkload,
                         ::testing::Values("tcp-rr", "tcp-dftt", "sim-mq8"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(Pooling, WeighsSchedulesByTheirCounts) {
  dsjoin::core::ExperimentResult a;
  a.exact_pairs = 100;
  a.reported_pairs = 90;
  a.traffic.frames_by_kind[0] = 45;
  a.traffic.bytes_by_kind[0] = 900;
  dsjoin::core::ExperimentResult b;
  b.exact_pairs = 300;
  b.reported_pairs = 270;
  b.traffic.frames_by_kind[0] = 135;
  b.traffic.bytes_by_kind[0] = 2700;
  const std::vector<const dsjoin::core::ExperimentResult*> results = {&a, &b};
  const Pooled pooled = pool(results);
  EXPECT_DOUBLE_EQ(pooled.epsilon, 0.1);
  EXPECT_DOUBLE_EQ(pooled.bytes_per_result, 10.0);
  EXPECT_DOUBLE_EQ(pooled.messages_per_result, 0.5);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

}  // namespace
}  // namespace perfbench
