// Streaming subsystem tests: ring-buffer mechanics, running-moment vs
// batch-extractor parity over long streams, drift triggering (including
// an exact list of fire points), deterministic multiplexed scoring at
// different thread counts, the wire protocol under seeded mutation,
// steady-state allocation behavior of the ingest path (train_alloc_test
// style), and registry hot reload during active streaming.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <limits>
#include <new>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "core/trainer.h"
#include "datagen/families.h"
#include "features/features.h"
#include "obs/clock.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "stream/drift.h"
#include "stream/protocol.h"
#include "stream/scorer.h"
#include "stream/stream_buffer.h"
#include "stream/window_moments.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// The replacement operators must allocate with malloc/free directly.
// GCC flags the malloc/free pairing at inlined call sites even though
// replacing the global operators this way is well-defined.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;  // kdsel-lint: allow(naked-new)
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;  // kdsel-lint: allow(naked-new)
  throw std::bad_alloc();
}

// kdsel-lint: allow(naked-new)
void operator delete(void* p) noexcept { std::free(p); }
// kdsel-lint: allow(naked-new)
void operator delete[](void* p) noexcept { std::free(p); }
// kdsel-lint: allow(naked-new)
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
// kdsel-lint: allow(naked-new)
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace kdsel::stream {
namespace {

std::unique_ptr<core::TrainedSelector> TrainTinySelector(
    size_t num_classes = 3, uint64_t seed = 1) {
  core::SelectorTrainingData data;
  data.num_classes = num_classes;
  Rng rng(seed);
  for (int i = 0; i < 60; ++i) {
    const int c = i % static_cast<int>(num_classes);
    std::vector<float> w(16);
    for (size_t t = 0; t < 16; ++t) {
      w[t] = std::sin((0.3 + 0.9 * c) * static_cast<double>(t)) +
             0.05f * static_cast<float>(rng.Normal());
    }
    data.windows.push_back(std::move(w));
    data.labels.push_back(c);
  }
  core::TrainerOptions opts;
  opts.backbone = "ConvNet";
  opts.epochs = 2;
  opts.seed = seed;
  auto selector = core::TrainSelector(data, opts, nullptr);
  KDSEL_CHECK(selector.ok());
  return std::move(selector).value();
}

TEST(StreamBufferTest, WrapAroundKeepsLogicalOrder) {
  StreamBuffer buffer(4);
  EXPECT_EQ(buffer.size(), 0u);
  EXPECT_FALSE(buffer.full());
  for (int i = 0; i < 3; ++i) buffer.Push(static_cast<float>(i));
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_FLOAT_EQ(buffer.front(), 0.0f);
  EXPECT_FLOAT_EQ(buffer.back(), 2.0f);

  for (int i = 3; i < 11; ++i) buffer.Push(static_cast<float>(i));
  EXPECT_TRUE(buffer.full());
  EXPECT_EQ(buffer.size(), 4u);
  EXPECT_EQ(buffer.total(), 11u);
  // Window holds the last 4 pushes, oldest first.
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(buffer[i], static_cast<float>(7 + i));
  }
  float copied[4];
  buffer.CopyTo(copied);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(copied[i], static_cast<float>(7 + i));
  }
}

// Moment-parity harness: stream `points` through WindowMoments and at
// checkpoints compare each MomentSummary field, narrowed to float, with
// the batch extractor's slot of the same statistic on the identical
// window.
void ExpectStreamMatchesBatch(const std::vector<float>& points, size_t window,
                              const std::string& context) {
  const std::vector<std::string>& names = features::FeatureNames();
  size_t slots[MomentSummary::kDims];
  const char* const kSlotNames[MomentSummary::kDims] = {
      "mean", "std", "skewness", "autocorr_lag1", "mean_abs_change", "rms"};
  for (size_t j = 0; j < MomentSummary::kDims; ++j) {
    slots[j] = static_cast<size_t>(
        std::find(names.begin(), names.end(), kSlotNames[j]) - names.begin());
    ASSERT_LT(slots[j], names.size()) << kSlotNames[j];
  }

  WindowMoments moments(window);
  const size_t checkpoint = 9973;  // prime: checkpoints drift over phases
  for (size_t i = 0; i < points.size(); ++i) {
    moments.Push(points[i]);
    const bool last = i + 1 == points.size();
    const size_t n = moments.buffer().size();
    if (n < 4) continue;  // the batch extractor's minimum window
    if ((i + 1) % checkpoint != 0 && !last) continue;

    double streamed[MomentSummary::kDims];
    moments.Moments().ToArray(streamed);
    std::vector<float> window_copy(n);
    moments.buffer().CopyTo(window_copy.data());
    const std::vector<float> batch = features::ExtractFeatures(window_copy);
    for (size_t j = 0; j < MomentSummary::kDims; ++j) {
      const float expected = batch[slots[j]];
      // Relative 1e-5: float quantization alone exceeds absolute 1e-5
      // for large-magnitude statistics (the mean of the wobble stream).
      const double tolerance =
          1e-5 * std::max(1.0, std::abs(static_cast<double>(expected)));
      EXPECT_NEAR(static_cast<float>(streamed[j]), expected, tolerance)
          << context << ": " << kSlotNames[j] << " at point " << i + 1;
    }
  }
  if (points.size() >= 2 * window) {
    EXPECT_GE(moments.recomputes(), points.size() / window - 1)
        << context << ": periodic exact recompute did not run";
  }
}

TEST(IncrementalParityTest, MatchesBatchOver100kPointsAllFamilies) {
  for (datagen::Family family : datagen::AllFamilies()) {
    Rng rng(42);
    const std::vector<float> points =
        datagen::GenerateBaseSignal(family, 100000, rng);
    ASSERT_EQ(points.size(), 100000u);
    ExpectStreamMatchesBatch(points, 256, datagen::FamilyName(family));
  }
}

TEST(IncrementalParityTest, ConstantAndDegenerateStreams) {
  // Constant stream: every variance-normalized slot is exactly 0 on both
  // paths (the degenerate-window contract).
  std::vector<float> constant(40000, 3.25f);
  ExpectStreamMatchesBatch(constant, 128, "constant");

  // Large offset with tiny wobble: stays finite and matches.
  Rng rng(7);
  std::vector<float> wobble(40000);
  for (float& v : wobble) {
    v = 50000.0f + static_cast<float>(rng.Normal(0.0, 1e-3));
  }
  ExpectStreamMatchesBatch(wobble, 128, "wobble");
}

TEST(IncrementalParityTest, ShortWindowPartialFill) {
  // Parity must hold before the ring ever fills or wraps.
  Rng rng(3);
  std::vector<float> points(100);
  for (float& v : points) v = static_cast<float>(rng.Normal(2.0, 1.5));
  ExpectStreamMatchesBatch(points, 256, "partial-fill");
}

// Drift harness: stream points through a 256-point window, observing
// moments every 16 pushes and rebasing after each fire, as the scorer
// does with its defaults; returns every point count at which the
// monitor fired.
std::vector<uint64_t> DriftFirePoints(const std::vector<float>& points,
                                      const DriftOptions& options) {
  WindowMoments moments(256);
  DriftMonitor monitor(options);
  std::vector<uint64_t> fires;
  for (size_t i = 0; i < points.size(); ++i) {
    moments.Push(points[i]);
    if ((i + 1) % 16 != 0 || moments.buffer().size() < 2) continue;
    if (monitor.Observe(moments.Moments())) {
      fires.push_back(i + 1);
      monitor.Rebase();
    }
  }
  return fires;
}

// The first point at which the monitor fired, or 0.
uint64_t FirstDriftPoint(const std::vector<float>& points,
                         const DriftOptions& options) {
  const std::vector<uint64_t> fires = DriftFirePoints(points, options);
  return fires.empty() ? 0 : fires.front();
}

TEST(DriftMonitorTest, SilentOnStationaryStreams) {
  const DriftOptions options;
  Rng rng(5);

  std::vector<float> sine(60000);
  for (size_t i = 0; i < sine.size(); ++i) {
    sine[i] = static_cast<float>(4.0 + std::sin(0.21 * i) +
                                 0.15 * rng.Normal());
  }
  EXPECT_EQ(FirstDriftPoint(sine, options), 0u) << "sine+noise fired";

  std::vector<float> ar(60000);
  double state = 0.0;
  for (float& v : ar) {
    state = 0.8 * state + rng.Normal(0.0, 0.5);
    v = static_cast<float>(state);
  }
  EXPECT_EQ(FirstDriftPoint(ar, options), 0u) << "AR(1) fired";

  std::vector<float> white(60000);
  for (float& v : white) v = static_cast<float>(rng.Normal(0.0, 2.0));
  EXPECT_EQ(FirstDriftPoint(white, options), 0u) << "white noise fired";
}

TEST(DriftMonitorTest, FiresOnInjectedRegimeSwitch) {
  const DriftOptions options;
  Rng rng(6);
  const size_t kSwitch = 20000;

  // Smooth sine regime, then an abrupt square-wave regime at a different
  // level — the kind of family switch the streaming CLI must react to.
  std::vector<float> points(40000);
  for (size_t i = 0; i < points.size(); ++i) {
    if (i < kSwitch) {
      points[i] = static_cast<float>(2.0 + std::sin(0.2 * i) +
                                     0.1 * rng.Normal());
    } else {
      points[i] = static_cast<float>(
          8.0 + ((i / 25) % 2 == 0 ? 3.0 : -3.0) + 0.1 * rng.Normal());
    }
  }
  const uint64_t fired = FirstDriftPoint(points, options);
  EXPECT_GT(fired, kSwitch) << "fired before the switch (or not at all)";
  EXPECT_LE(fired, kSwitch + 4000) << "fired too long after the switch";

  // Subtler switch: same level, changed autocorrelation structure.
  Rng rng2(8);
  std::vector<float> subtle(40000);
  for (size_t i = 0; i < subtle.size(); ++i) {
    if (i < kSwitch) {
      subtle[i] = static_cast<float>(std::sin(0.1 * i) + 0.05 * rng2.Normal());
    } else {
      subtle[i] = static_cast<float>(rng2.Normal(0.0, 0.8));
    }
  }
  const uint64_t fired2 = FirstDriftPoint(subtle, options);
  EXPECT_GT(fired2, kSwitch);
  EXPECT_LE(fired2, kSwitch + 4000);

  // Exact decisions: a square wave of period 50 plus uniform noise from
  // an integer LCG, its level stepping 2 -> 6 -> 30 -> 2 every 10k
  // points. Built from exactly rounded float operations only (no libm),
  // so the input is the same bits on every platform, and the fire list
  // pins the moment arithmetic: a change that moves any MomentSummary
  // field by an ulp can move a fire point.
  std::vector<float> steps(40000);
  const float kLevels[] = {2.0f, 6.0f, 30.0f, 2.0f};
  uint32_t lcg = 12345;
  for (size_t i = 0; i < steps.size(); ++i) {
    lcg = lcg * 1664525u + 1013904223u;
    const float noise =
        static_cast<float>(static_cast<int32_t>(lcg >> 8) - (1 << 23)) /
        static_cast<float>(1 << 25);  // uniform in [-0.25, 0.25)
    const float square = (i / 25) % 2 == 0 ? 1.0f : -1.0f;
    steps[i] = kLevels[i / 10000] + square + noise;
  }
  EXPECT_EQ(DriftFirePoints(steps, options),
            (std::vector<uint64_t>{10048, 20048, 30272}));
}

TEST(DriftMonitorTest, RebaseRecalibratesOnNewRegime) {
  DriftMonitor monitor(DriftOptions{});
  MomentSummary calm;
  calm.mean = 1.0;
  calm.stddev = 0.5;
  for (size_t i = 0; i < 64; ++i) EXPECT_FALSE(monitor.Observe(calm));
  EXPECT_TRUE(monitor.calibrated());

  MomentSummary shifted = calm;
  shifted.mean = 50.0;
  bool fired = false;
  for (size_t i = 0; i < 8 && !fired; ++i) fired = monitor.Observe(shifted);
  EXPECT_TRUE(fired);

  // After Rebase the shifted regime becomes the new baseline.
  monitor.Rebase();
  for (size_t i = 0; i < 64; ++i) EXPECT_FALSE(monitor.Observe(shifted));
  for (size_t i = 0; i < 16; ++i) {
    EXPECT_FALSE(monitor.Observe(shifted)) << "fired on its own baseline";
  }
}

std::vector<PointEvent> MakeStreamBatch(const std::vector<std::string>& names,
                                        size_t points_per_series,
                                        size_t offset) {
  std::vector<PointEvent> batch;
  for (size_t p = 0; p < points_per_series; ++p) {
    for (size_t s = 0; s < names.size(); ++s) {
      const size_t t = offset + p;
      const double phase = 0.25 + 0.4 * static_cast<double>(s);
      batch.push_back(PointEvent{
          names[s], static_cast<float>(std::sin(phase * t))});
    }
  }
  return batch;
}

StreamOptions TinyStreamOptions() {
  StreamOptions options;
  options.selector = "tiny";
  options.window = 64;
  options.rescore_interval = 64;
  options.drift_check_interval = 8;
  options.drift.calibration = 16;
  options.drift.patience = 2;
  return options;
}

TEST(StreamScorerTest, EmitsInitialThenPeriodicSelections) {
  serve::SelectorRegistry registry(
      core::SelectorManager("/tmp/kdsel_stream_none"));
  ASSERT_TRUE(registry.Register("tiny", TrainTinySelector()).ok());
  StreamScorer scorer(&registry, TinyStreamOptions());

  const std::vector<std::string> names = {"alpha", "beta"};
  auto first = scorer.ProcessBatch(MakeStreamBatch(names, 64, 0));
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->size(), 2u);
  for (const StreamEvent& event : *first) {
    EXPECT_EQ(event.kind, StreamEvent::Kind::kSelection);
    EXPECT_EQ(event.reason, "initial");
    EXPECT_FALSE(event.changed);
    EXPECT_GE(event.model, 0);
    EXPECT_EQ(event.point, 64u);
  }
  EXPECT_EQ((*first)[0].series, "alpha");
  EXPECT_EQ((*first)[1].series, "beta");

  auto second = scorer.ProcessBatch(MakeStreamBatch(names, 64, 64));
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_EQ(second->size(), 2u);
  for (const StreamEvent& event : *second) {
    EXPECT_EQ(event.reason, "periodic");
    EXPECT_EQ(event.point, 128u);
  }
  EXPECT_EQ(scorer.series_count(), 2u);
  EXPECT_EQ(scorer.points_ingested(), 256u);
}

TEST(StreamScorerTest, DriftTriggersReselection) {
  serve::SelectorRegistry registry(
      core::SelectorManager("/tmp/kdsel_stream_none"));
  ASSERT_TRUE(registry.Register("tiny", TrainTinySelector()).ok());
  StreamOptions options = TinyStreamOptions();
  options.rescore_interval = 100000;  // periodic path effectively off
  StreamScorer scorer(&registry, options);

  Rng rng(9);
  std::vector<PointEvent> calm;
  for (size_t t = 0; t < 2000; ++t) {
    calm.push_back(PointEvent{
        "s", static_cast<float>(std::sin(0.3 * t) + 0.05 * rng.Normal())});
  }
  auto first = scorer.ProcessBatch(calm);
  ASSERT_TRUE(first.ok()) << first.status();
  ASSERT_EQ(first->size(), 1u);  // initial selection only, no drift
  EXPECT_EQ((*first)[0].reason, "initial");

  std::vector<PointEvent> shifted;
  for (size_t t = 0; t < 2000; ++t) {
    shifted.push_back(PointEvent{
        "s", static_cast<float>(20.0 + 4.0 * ((t / 20) % 2) +
                                0.05 * rng.Normal())});
  }
  auto second = scorer.ProcessBatch(shifted);
  ASSERT_TRUE(second.ok()) << second.status();
  ASSERT_GE(second->size(), 2u);
  EXPECT_EQ((*second)[0].kind, StreamEvent::Kind::kDrift);
  EXPECT_GT((*second)[0].statistic, 0.0);
  bool saw_drift_selection = false;
  for (const StreamEvent& event : *second) {
    if (event.kind == StreamEvent::Kind::kSelection) {
      EXPECT_EQ(event.reason, "drift");
      saw_drift_selection = true;
    }
  }
  EXPECT_TRUE(saw_drift_selection);
}

// Serializes every emitted event so runs can be compared exactly.
std::string RunScenario(size_t threads) {
  ThreadPool::ResetGlobalForTesting(threads);
  serve::SelectorRegistry registry(
      core::SelectorManager("/tmp/kdsel_stream_none"));
  KDSEL_CHECK(registry.Register("tiny", TrainTinySelector()).ok());
  StreamScorer scorer(&registry, TinyStreamOptions());

  std::vector<std::string> names;
  for (int s = 0; s < 9; ++s) names.push_back("series_" + std::to_string(s));

  std::string log;
  for (size_t round = 0; round < 6; ++round) {
    auto events = scorer.ProcessBatch(MakeStreamBatch(names, 40, round * 40));
    KDSEL_CHECK(events.ok());
    for (const StreamEvent& event : *events) {
      log += FormatStreamEvent(event);
      log.push_back('\n');
    }
  }
  return log;
}

TEST(StreamScorerTest, DeterministicAcrossThreadCounts) {
  const std::string single = RunScenario(1);
  const std::string pooled = RunScenario(8);
  ThreadPool::ResetGlobalForTesting(0);
  EXPECT_FALSE(single.empty());
  EXPECT_EQ(single, pooled);
}

TEST(StreamScorerTest, HotReloadDuringActiveStreaming) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kdsel_stream_reload")
          .string();
  std::filesystem::remove_all(dir);
  core::SelectorManager manager(dir);
  ASSERT_TRUE(manager.Save(*TrainTinySelector(), "hot").ok());

  serve::SelectorRegistry registry{core::SelectorManager(dir)};
  ASSERT_TRUE(registry.GetOrLoad("hot").ok());
  StreamOptions options = TinyStreamOptions();
  options.selector = "hot";
  options.rescore_interval = 16;  // re-score often to hit fresh snapshots
  StreamScorer scorer(&registry, options);

  // Raw thread on purpose: the reloader is an external actor outside the
  // shared pool, hot-swapping snapshots while batches are in flight.
  std::atomic<bool> stop{false};
  std::thread reloader([&] {  // kdsel-lint: allow(raw-thread)
    while (!stop.load(std::memory_order_relaxed)) {
      KDSEL_CHECK(registry.ReloadAll().ok());
    }
  });

  // Stream at least 40 rounds, then on until a selection has run on a
  // reloaded snapshot: a fixed round count alone can finish before the
  // reloader's first swap lands.
  const std::vector<std::string> names = {"r0", "r1", "r2", "r3"};
  const double deadline_s = obs::NowSeconds() + 60.0;
  uint64_t selections = 0;
  uint64_t max_version = 0;
  for (size_t round = 0;
       round < 40 ||
       (max_version <= 1 && obs::NowSeconds() < deadline_s);
       ++round) {
    auto events = scorer.ProcessBatch(MakeStreamBatch(names, 16, round * 16));
    if (!events.ok()) {
      stop.store(true, std::memory_order_relaxed);
      reloader.join();
      FAIL() << events.status();
    }
    for (const StreamEvent& event : *events) {
      if (event.kind != StreamEvent::Kind::kSelection) continue;
      ++selections;
      max_version = std::max(max_version, event.selector_version);
    }
  }
  stop.store(true, std::memory_order_relaxed);
  reloader.join();

  EXPECT_GT(selections, 0u);
  // The reloader really did swap versions under our feet.
  EXPECT_GT(max_version, 1u);
  std::filesystem::remove_all(dir);
}

TEST(StreamProtocolTest, ParsesPointsBurstsAndControls) {
  auto point = ParseStreamLine("{\"series\":\"s1\",\"value\":0.5}");
  ASSERT_TRUE(point.ok());
  EXPECT_EQ(point->op, StreamRequest::Op::kPoints);
  EXPECT_EQ(point->series, "s1");
  ASSERT_EQ(point->values.size(), 1u);
  EXPECT_FLOAT_EQ(point->values[0], 0.5f);

  auto burst = ParseStreamLine("{\"series\":\"s2\",\"values\":[1,2,3]}");
  ASSERT_TRUE(burst.ok());
  EXPECT_EQ(burst->values.size(), 3u);

  // "op":"points" is the explicit alias for the implicit point form.
  auto explicit_points =
      ParseStreamLine("{\"op\":\"points\",\"series\":\"s3\",\"values\":[4]}");
  ASSERT_TRUE(explicit_points.ok());
  EXPECT_EQ(explicit_points->op, StreamRequest::Op::kPoints);
  EXPECT_EQ(explicit_points->series, "s3");

  auto quit = ParseStreamLine("{\"op\":\"quit\"}");
  ASSERT_TRUE(quit.ok());
  EXPECT_EQ(quit->op, StreamRequest::Op::kQuit);

  EXPECT_FALSE(ParseStreamLine("not json").ok());
  EXPECT_FALSE(ParseStreamLine("{\"value\":1}").ok());
  EXPECT_FALSE(ParseStreamLine("{\"series\":\"s\"}").ok());
  EXPECT_FALSE(ParseStreamLine("{\"series\":\"s\",\"values\":[]}").ok());
  EXPECT_FALSE(ParseStreamLine("{\"op\":\"explode\"}").ok());
}

// A point beyond float range would narrow to +-inf inside the scorer.
TEST(StreamProtocolTest, PointsBeyondFloatRangeAreOutOfRange) {
  auto burst = ParseStreamLine("{\"series\":\"s\",\"values\":[1,1e39]}");
  ASSERT_FALSE(burst.ok());
  EXPECT_EQ(burst.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(burst.status().message().find("\"values\"[1]"), std::string::npos)
      << burst.status();
  auto point = ParseStreamLine("{\"series\":\"s\",\"value\":-3.4028236e38}");
  ASSERT_FALSE(point.ok());
  EXPECT_EQ(point.status().code(), StatusCode::kOutOfRange);
  EXPECT_NE(point.status().message().find("\"value\""), std::string::npos)
      << point.status();
  auto edge = ParseStreamLine("{\"series\":\"s\",\"value\":3.4028235e38}");
  ASSERT_TRUE(edge.ok()) << edge.status();
  EXPECT_EQ(edge->values[0], std::numeric_limits<float>::max());
}

// Whatever the bytes, ParseStreamLine answers with a usable request or a
// typed error: OK (a point line then names a series and carries only
// finite values), InvalidArgument or OutOfRange. Returns the code.
StatusCode ExpectTypedParse(const std::string& line) {
  auto parsed = ParseStreamLine(line);
  const std::string shown = line.substr(0, 120);
  if (!parsed.ok()) {
    const StatusCode code = parsed.status().code();
    EXPECT_TRUE(code == StatusCode::kInvalidArgument ||
                code == StatusCode::kOutOfRange)
        << parsed.status() << " for " << shown;
    return code;
  }
  if (parsed->op == StreamRequest::Op::kPoints) {
    EXPECT_FALSE(parsed->series.empty()) << shown;
    EXPECT_FALSE(parsed->values.empty()) << shown;
    for (float v : parsed->values) EXPECT_TRUE(std::isfinite(v)) << shown;
  }
  return StatusCode::kOk;
}

// Spans of the number and string tokens of `line`: the places a
// substituted token lands.
std::vector<std::pair<size_t, size_t>> TokenSpans(const std::string& line) {
  std::vector<std::pair<size_t, size_t>> spans;
  for (size_t i = 0; i < line.size();) {
    const char c = line[i];
    size_t end = i + 1;
    if (c == '"') {
      while (end < line.size() && line[end] != '"') ++end;
      end = std::min(end + 1, line.size());  // past the closing quote
      spans.emplace_back(i, end - i);
    } else if (c == '-' || (c >= '0' && c <= '9')) {
      while (end < line.size() &&
             std::string_view("0123456789.eE+-").find(line[end]) !=
                 std::string_view::npos) {
        ++end;
      }
      spans.emplace_back(i, end - i);
    }
    i = std::max(end, i + 1);
  }
  return spans;
}

TEST(StreamProtocolTest, MutatedLinesParseOrFailTyped) {
  const std::vector<std::string> seeds = {
      R"({"series":"s1","value":0.5})",
      R"({"series":"host42.cpu","values":[0.74,-0.69,72e-2,1,3]})",
      R"({"op":"points","series":"s3","values":[4,5.25]})",
      R"({"op":"reload"})",
      R"({"op":"stats"})",
      R"({"op":"quit"})",
  };
  const char* const kTokens[] = {"1e39", "1e400", "-0",  "1e-310",
                                 "+1",   ".5",    "NaN", "null"};
  Rng rng(24);
  size_t counts[3] = {0, 0, 0};  // OK, InvalidArgument, OutOfRange
  for (int round = 0; round < 1500; ++round) {
    for (const std::string& seed : seeds) {
      std::string line = seed;
      switch (rng.Index(3)) {
        case 0:  // byte flips
          for (size_t k = 1 + rng.Index(3); k > 0; --k) {
            line[rng.Index(line.size())] = static_cast<char>(rng.Index(256));
          }
          break;
        case 1:  // truncation
          line.resize(rng.Index(line.size()));
          break;
        default: {  // an edge token in place of a number or string
          const auto spans = TokenSpans(line);
          const auto& [at, length] = spans[rng.Index(spans.size())];
          line.replace(at, length, kTokens[rng.Index(std::size(kTokens))]);
        }
      }
      switch (ExpectTypedParse(line)) {
        case StatusCode::kOk:
          ++counts[0];
          break;
        case StatusCode::kInvalidArgument:
          ++counts[1];
          break;
        default:
          ++counts[2];
      }
    }
  }
  // Every outcome class is exercised, so the contract above is tested.
  EXPECT_GT(counts[0], 0u);
  EXPECT_GT(counts[1], 0u);
  EXPECT_GT(counts[2], 0u);

  // 100k-deep nesting is refused, not recursed into.
  const std::string deep(100000, '[');
  EXPECT_EQ(ExpectTypedParse(R"({"series":"s","values":)" + deep + "1" +
                             std::string(100000, ']') + "}"),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExpectTypedParse(deep), StatusCode::kInvalidArgument);

  // A 100k-element burst parses whole.
  std::string burst = R"({"series":"big","values":[)";
  for (int i = 0; i < 100000; ++i) {
    if (i > 0) burst.push_back(',');
    burst += std::to_string(i % 1000) + ".5";
  }
  burst += "]}";
  auto big = ParseStreamLine(burst);
  ASSERT_TRUE(big.ok()) << big.status();
  ASSERT_EQ(big->values.size(), 100000u);
  EXPECT_EQ(big->values.back(), 999.5f);
}

TEST(StreamProtocolTest, EndToEndLoopEmitsSelectionAndStats) {
  serve::SelectorRegistry registry(
      core::SelectorManager("/tmp/kdsel_stream_none"));
  ASSERT_TRUE(registry.Register("tiny", TrainTinySelector()).ok());
  StreamScorer scorer(&registry, TinyStreamOptions());

  std::ostringstream input_text;
  for (size_t t = 0; t < 96; ++t) {
    input_text << "{\"series\":\"s1\",\"value\":"
               << std::sin(0.3 * static_cast<double>(t)) << "}\n";
  }
  input_text << "this is not json\n";
  input_text << "{\"op\":\"stats\"}\n";
  input_text << "{\"op\":\"quit\"}\n";

  std::istringstream in(input_text.str());
  std::ostringstream out;
  const Status status = RunStreamLoop(in, out, scorer, registry);
  ASSERT_TRUE(status.ok()) << status;

  const std::string output = out.str();
  EXPECT_NE(output.find("\"event\":\"selection\""), std::string::npos);
  EXPECT_NE(output.find("\"reason\":\"initial\""), std::string::npos);
  EXPECT_NE(output.find("\"event\":\"error\""), std::string::npos);
  EXPECT_EQ(scorer.points_ingested(), 96u);

  // The stats event's registry snapshot carries every metric the
  // streaming path registers, each in its own section.
  const size_t stats_at = output.find("{\"event\":\"stats\"");
  ASSERT_NE(stats_at, std::string::npos);
  auto stats = serve::Json::Parse(
      output.substr(stats_at, output.find('\n', stats_at) - stats_at));
  ASSERT_TRUE(stats.ok()) << stats.status();
  const serve::Json* metrics = stats->Find("metrics");
  ASSERT_NE(metrics, nullptr);
  const std::pair<const char*, const char*> required[] = {
      {"counters", "kdsel.stream.points"},
      {"counters", "kdsel.stream.rescores"},
      {"counters", "kdsel.stream.recomputes"},
      {"counters", "kdsel.stream.drift_events"},
      {"counters", "kdsel.stream.selection_changes"},
      {"gauges", "kdsel.stream.series"},
      {"histograms", "kdsel.stream.rescore_us"},
  };
  for (const auto& [section, name] : required) {
    const serve::Json* entries = metrics->Find(section);
    ASSERT_NE(entries, nullptr) << section;
    EXPECT_NE(entries->Find(name), nullptr) << section << " " << name;
  }
}

TEST(StreamAllocTest, SteadyStateIngestAllocatesNothing) {
  WindowMoments moments(256);
  DriftMonitor monitor(DriftOptions{});

  // One synthetic ingest step: push + the drift check cadence.
  Rng rng(12);
  uint64_t t = 0;
  auto step = [&] {
    moments.Push(
        static_cast<float>(std::sin(0.21 * static_cast<double>(t)) +
                           0.1 * rng.Normal()));
    ++t;
    if (t % 16 == 0) monitor.Observe(moments.Moments());
  };

  // Warmup: fill the ring and cross several exact recomputes.
  for (size_t i = 0; i < 1024; ++i) step();

  const uint64_t before = g_allocations.load(std::memory_order_relaxed);
  for (size_t i = 0; i < 10000; ++i) step();
  const uint64_t after = g_allocations.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state ingest path allocated " << after - before << " times";
  EXPECT_GE(moments.recomputes(), 40u);
}

}  // namespace
}  // namespace kdsel::stream
