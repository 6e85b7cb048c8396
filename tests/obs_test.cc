// Tests for the src/obs/ tracing and metrics layer: registry handle
// identity, exact concurrent counter sums, histogram percentiles and
// reset semantics, snapshot JSON well-formedness, span recording with
// nesting/thread attribution, buffer overflow accounting, and the
// chrome-trace writer.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "nn/conv.h"
#include "obs/clock.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/json.h"

namespace kdsel {
namespace {

TEST(MetricsRegistryTest, SameNameReturnsSameHandle) {
  auto& registry = obs::MetricsRegistry::Global();
  obs::Counter& a = registry.GetCounter("kdsel.test.handle");
  obs::Counter& b = registry.GetCounter("kdsel.test.handle");
  EXPECT_EQ(&a, &b);
  obs::Gauge& g1 = registry.GetGauge("kdsel.test.handle");  // distinct kind
  obs::Gauge& g2 = registry.GetGauge("kdsel.test.handle");
  EXPECT_EQ(&g1, &g2);
  obs::Histogram& h1 = registry.GetHistogram("kdsel.test.handle");
  obs::Histogram& h2 = registry.GetHistogram("kdsel.test.handle");
  EXPECT_EQ(&h1, &h2);
}

TEST(MetricsRegistryTest, ParallelIncrementsSumExactly) {
  auto& counter =
      obs::MetricsRegistry::Global().GetCounter("kdsel.test.parallel_sum");
  counter.Reset();
  constexpr size_t kItems = 10000;
  ParallelFor(kItems, 64, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) counter.Increment();
  });
  EXPECT_EQ(counter.Value(), kItems);
}

TEST(MetricsRegistryTest, ConcurrentThreadsSumExactly) {
  auto& counter =
      obs::MetricsRegistry::Global().GetCounter("kdsel.test.thread_sum");
  counter.Reset();
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 25000;
  // Raw threads on purpose: the registry must be safe outside the pool.
  std::vector<std::thread> threads;  // kdsel-lint: allow(raw-thread)
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (uint64_t i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
}

TEST(HistogramTest, SummaryAndReset) {
  obs::Histogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  const obs::Histogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_NEAR(s.mean, 500.5, 1e-9);
  // Geometric buckets (2^(1/4) growth) bound relative error at ~19%.
  EXPECT_GT(s.p50, 500.0 * 0.8);
  EXPECT_LT(s.p50, 500.0 * 1.25);
  EXPECT_GE(s.p99, 990.0 * 0.8);
  EXPECT_LE(s.p99, 1000.0);

  h.Reset();
  const obs::Histogram::Summary empty = h.Summarize();
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.samples, 0u);
}

TEST(HistogramTest, PercentileAndSampleCountMatchSummary) {
  obs::Histogram h;
  EXPECT_EQ(h.SampleCount(), 0u);
  EXPECT_DOUBLE_EQ(h.Percentile(0.5), 0.0);  // Empty: defined as 0.
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  EXPECT_EQ(h.SampleCount(), 1000u);
  const obs::Histogram::Summary s = h.Summarize();
  // Percentile(q) is THE percentile implementation: the Summary fields
  // must be exactly the same estimator, not a parallel computation.
  EXPECT_DOUBLE_EQ(h.Percentile(0.50), s.p50);
  EXPECT_DOUBLE_EQ(h.Percentile(0.95), s.p95);
  EXPECT_DOUBLE_EQ(h.Percentile(0.99), s.p99);
  EXPECT_DOUBLE_EQ(h.Percentile(0.999), s.p999);
  // Bucketed estimate within the 2^(1/4) geometric bucket error bound.
  EXPECT_GT(h.Percentile(0.50), 500.0 * 0.8);
  EXPECT_LT(h.Percentile(0.50), 500.0 * 1.25);
  EXPECT_GE(s.p999, s.p99);
  EXPECT_LE(s.p999, s.max);
  // Quantiles are monotone in q.
  EXPECT_LE(h.Percentile(0.25), h.Percentile(0.75));
}

TEST(HistogramTest, NegativeAndNanClampToZero) {
  obs::Histogram h;
  h.Record(-5.0);
  h.Record(std::nan(""));
  const obs::Histogram::Summary s = h.Summarize();
  EXPECT_EQ(s.count, 2u);
  EXPECT_DOUBLE_EQ(s.min, 0.0);
  EXPECT_DOUBLE_EQ(s.max, 0.0);
}

TEST(MetricsRegistryTest, SnapshotJsonParsesAndCarriesValues) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("kdsel.test.snapshot_counter").Reset();
  registry.GetCounter("kdsel.test.snapshot_counter").Increment(41);
  registry.GetGauge("kdsel.test.snapshot_gauge").Set(2.5);
  auto& histogram = registry.GetHistogram("kdsel.test.snapshot_histogram");
  histogram.Reset();
  histogram.Record(10.0);
  histogram.Record(20.0);

  auto parsed = serve::Json::Parse(registry.SnapshotJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const serve::Json* counter =
      parsed->Find("counters")->Find("kdsel.test.snapshot_counter");
  ASSERT_NE(counter, nullptr);
  EXPECT_DOUBLE_EQ(counter->as_number(), 41.0);
  const serve::Json* gauge =
      parsed->Find("gauges")->Find("kdsel.test.snapshot_gauge");
  ASSERT_NE(gauge, nullptr);
  EXPECT_DOUBLE_EQ(gauge->as_number(), 2.5);
  const serve::Json* hist =
      parsed->Find("histograms")->Find("kdsel.test.snapshot_histogram");
  ASSERT_NE(hist, nullptr);
  EXPECT_DOUBLE_EQ(hist->Find("count")->as_number(), 2.0);
  EXPECT_DOUBLE_EQ(hist->Find("mean")->as_number(), 15.0);
}

TEST(MetricsRegistryTest, RenderPrometheusExposesAllKindsWithMangledNames) {
  auto& registry = obs::MetricsRegistry::Global();
  registry.GetCounter("kdsel.test.prom_counter").Reset();
  registry.GetCounter("kdsel.test.prom_counter").Increment(7);
  registry.GetGauge("kdsel.test.prom_gauge").Set(1.5);
  auto& histogram = registry.GetHistogram("kdsel.test.prom_hist");
  histogram.Reset();
  histogram.Record(100.0);
  histogram.Record(200.0);

  const std::string text = registry.RenderPrometheus();
  // Dots mangle to underscores per the kdsel_<layer>_<name> contract.
  EXPECT_NE(text.find("# TYPE kdsel_test_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("kdsel_test_prom_counter 7"), std::string::npos);
  EXPECT_NE(text.find("# TYPE kdsel_test_prom_gauge gauge"),
            std::string::npos);
  EXPECT_NE(text.find("kdsel_test_prom_gauge 1.5"), std::string::npos);
  // Histograms render as summaries: quantile series plus _sum/_count.
  EXPECT_NE(text.find("# TYPE kdsel_test_prom_hist summary"),
            std::string::npos);
  EXPECT_NE(text.find("kdsel_test_prom_hist{quantile=\"0.5\"}"),
            std::string::npos);
  EXPECT_NE(text.find("kdsel_test_prom_hist{quantile=\"0.999\"}"),
            std::string::npos);
  EXPECT_NE(text.find("kdsel_test_prom_hist_count 2"), std::string::npos);
  EXPECT_NE(text.find("kdsel_test_prom_hist_sum 300"), std::string::npos);
  // Exposition format: every line is `name[{labels}] value`.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    if (line[0] == '#') {
      EXPECT_EQ(line.rfind("# TYPE ", 0), 0u) << line;
      continue;
    }
    EXPECT_NE(line.find(' '), std::string::npos) << line;
  }
}

TEST(FlightRecorderTest, RingKeepsTailAndSlowestPoolKeepsWorst) {
  obs::FlightRecorder recorder(/*recent_capacity=*/4, /*slowest_capacity=*/2);
  for (int i = 1; i <= 10; ++i) {
    obs::FlightRecord record;
    std::snprintf(record.trace, sizeof(record.trace), "r-%d", i);
    // Request 3 is the all-time slowest; 7 the runner-up.
    record.total_us = (i == 3) ? 9000.0 : (i == 7) ? 5000.0 : 100.0 * i;
    record.compute_us = 10.0 * i;
    recorder.Record(record);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  EXPECT_DOUBLE_EQ(recorder.SlowestTotalUs(), 9000.0);

  // Ring: the last 4 records, oldest first.
  const auto recent = recorder.RecentSnapshot();
  ASSERT_EQ(recent.size(), 4u);
  EXPECT_STREQ(recent.front().trace, "r-7");
  EXPECT_STREQ(recent.back().trace, "r-10");

  // Slowest pool: descending by total_us, survives later fast traffic.
  const auto slowest = recorder.SlowestSnapshot();
  ASSERT_EQ(slowest.size(), 2u);
  EXPECT_STREQ(slowest[0].trace, "r-3");
  EXPECT_DOUBLE_EQ(slowest[0].total_us, 9000.0);
  EXPECT_STREQ(slowest[1].trace, "r-7");
}

TEST(FlightRecorderTest, DumpJsonParsesAndCarriesVerdictsAndStages) {
  obs::FlightRecorder recorder(/*recent_capacity=*/8, /*slowest_capacity=*/4);
  obs::FlightRecord served;
  std::snprintf(served.trace, sizeof(served.trace), "ok-1");
  served.parse_us = 5.0;
  served.queue_us = 10.0;
  served.batch_wait_us = 20.0;
  served.compute_us = 30.0;
  served.write_us = 40.0;
  served.total_us = 105.0;
  served.int8_variant = true;
  recorder.Record(served);
  obs::FlightRecord refused;
  std::snprintf(refused.trace, sizeof(refused.trace), "shed-1");
  refused.verdict = obs::FlightRecord::Verdict::kShed;
  refused.total_us = 5.0;
  recorder.Record(refused);

  auto parsed = serve::Json::Parse(recorder.DumpJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_DOUBLE_EQ(parsed->GetNumber("recorded", 0), 2.0);
  const serve::Json* recent = parsed->Find("recent");
  ASSERT_NE(recent, nullptr);
  ASSERT_EQ(recent->items().size(), 2u);
  const serve::Json& first = recent->items()[0];
  EXPECT_EQ(first.GetString("trace", ""), "ok-1");
  EXPECT_EQ(first.GetString("verdict", ""), "ok");
  EXPECT_EQ(first.GetString("variant", ""), "int8");
  EXPECT_DOUBLE_EQ(first.GetNumber("parse_us", 0), 5.0);
  EXPECT_DOUBLE_EQ(first.GetNumber("queue_us", 0), 10.0);
  EXPECT_DOUBLE_EQ(first.GetNumber("write_us", 0), 40.0);
  EXPECT_DOUBLE_EQ(first.GetNumber("total_us", 0), 105.0);
  const serve::Json& second = recent->items()[1];
  EXPECT_EQ(second.GetString("verdict", ""), "shed");
  EXPECT_EQ(second.GetString("variant", ""), "fp32");
  // Slowest pool mirrors the same records (both fit).
  const serve::Json* slowest = parsed->Find("slowest");
  ASSERT_NE(slowest, nullptr);
  ASSERT_EQ(slowest->items().size(), 2u);
  EXPECT_EQ(slowest->items()[0].GetString("trace", ""), "ok-1");
}

TEST(TraceTest, DisabledByDefaultRecordsNothing) {
  ASSERT_FALSE(obs::TracingEnabled());
  { KDSEL_SPAN("obs_test.should_not_appear"); }
  for (const obs::TraceEvent& e : obs::CollectTraceEvents()) {
    EXPECT_STRNE(e.name, "obs_test.should_not_appear");
  }
}

TEST(TraceTest, SpanNestingAndThreadAttribution) {
  obs::StartTracing();
  {
    KDSEL_SPAN("obs_test.outer");
    { KDSEL_SPAN("obs_test.inner"); }
  }
  // One span on a second thread: it must carry a different tid.
  std::thread other([] {  // kdsel-lint: allow(raw-thread)
    KDSEL_SPAN("obs_test.other_thread");
  });
  other.join();
  obs::StopTracing();

  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* inner = nullptr;
  const obs::TraceEvent* remote = nullptr;
  const std::vector<obs::TraceEvent> events = obs::CollectTraceEvents();
  for (const obs::TraceEvent& e : events) {
    if (std::string(e.name) == "obs_test.outer") outer = &e;
    if (std::string(e.name) == "obs_test.inner") inner = &e;
    if (std::string(e.name) == "obs_test.other_thread") remote = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(remote, nullptr);
  // Nesting: inner fully contained in outer, same thread.
  EXPECT_EQ(inner->tid, outer->tid);
  EXPECT_GE(inner->start_ns, outer->start_ns);
  EXPECT_LE(inner->start_ns + inner->dur_ns, outer->start_ns + outer->dur_ns);
  EXPECT_NE(remote->tid, outer->tid);
}

TEST(TraceTest, Int8ConvRecordsOneConvSpan) {
  // A quantized conv forward is one conv call: exactly one conv span,
  // named for its precision, never an fp32 span wrapped around it.
  Rng rng(7);
  nn::Conv1d conv(4, 8, 3, rng, /*use_bias=*/false);
  conv.QuantizeWithScales({0.02f});
  nn::Tensor x({2, 4, 16});
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<float>(rng.Uniform(-1.0, 1.0));
  }
  obs::StartTracing();
  (void)conv.Forward(x, /*training=*/false);
  obs::StopTracing();
  std::vector<std::string> conv_spans;
  for (const obs::TraceEvent& e : obs::CollectTraceEvents()) {
    const std::string name = e.name;
    if (name.rfind("nn.conv1d.", 0) == 0) conv_spans.push_back(name);
  }
  ASSERT_EQ(conv_spans.size(), 1u);
  EXPECT_EQ(conv_spans[0], "nn.conv1d.forward_int8");
}

TEST(TraceTest, ChromeTraceJsonRoundTrips) {
  obs::StartTracing();
  {
    KDSEL_SPAN("obs_test.export_outer");
    { KDSEL_SPAN("obs_test.export_inner"); }
  }
  obs::StopTracing();

  const std::string path = ::testing::TempDir() + "/kdsel_obs_trace.json";
  ASSERT_TRUE(obs::WriteChromeTrace(path).ok());
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  std::remove(path.c_str());

  auto parsed = serve::Json::Parse(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const serve::Json* events = parsed->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool outer_seen = false, inner_seen = false;
  for (const serve::Json& event : events->items()) {
    EXPECT_EQ(event.Find("ph")->as_string(), "X");
    EXPECT_EQ(event.Find("cat")->as_string(), "kdsel");
    EXPECT_GE(event.Find("ts")->as_number(), 0.0);
    EXPECT_GE(event.Find("dur")->as_number(), 0.0);
    if (event.Find("name")->as_string() == "obs_test.export_outer") {
      outer_seen = true;
    }
    if (event.Find("name")->as_string() == "obs_test.export_inner") {
      inner_seen = true;
    }
  }
  EXPECT_TRUE(outer_seen);
  EXPECT_TRUE(inner_seen);
}

TEST(TraceTest, OverflowDropsNewestAndCounts) {
  obs::StartTracing();
  // More spans than one thread's buffer holds (32768): the excess must
  // be counted as dropped, not crash or overwrite.
  constexpr size_t kSpans = 40000;
  for (size_t i = 0; i < kSpans; ++i) {
    KDSEL_SPAN("obs_test.flood");
  }
  obs::StopTracing();
  EXPECT_GE(obs::DroppedTraceEvents(), kSpans - 32768);
  // A fresh StartTracing rewinds both the buffers and the counter.
  obs::StartTracing();
  obs::StopTracing();
  EXPECT_EQ(obs::DroppedTraceEvents(), 0u);
}

TEST(TraceTest, WriteToUnwritablePathFails) {
  const Status status = obs::WriteChromeTrace("/no/such/dir/trace.json");
  EXPECT_FALSE(status.ok());
}

}  // namespace
}  // namespace kdsel
