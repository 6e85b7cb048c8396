#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <future>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/pipeline.h"
#include "datagen/families.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/stats.h"
#include "serve_test_util.h"

namespace kdsel::serve {
namespace {

using serve_test::HeldWorkers;
using serve_test::Lines;
using serve_test::RunAdoptedSession;
using serve_test::RunRequest;
using serve_test::SubmitOne;
using serve_test::SubmitTogether;

/// Trains a small ConvNet selector on separable synthetic windows.
std::unique_ptr<core::TrainedSelector> TrainTinySelector(
    size_t num_classes = 2, uint64_t seed = 1) {
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

/// Calibration windows matching the TrainTinySelector input recipe.
std::vector<std::vector<float>> TinyCalibrationWindows(uint64_t seed = 4) {
  Rng rng(seed);
  std::vector<std::vector<float>> windows;
  for (int i = 0; i < 8; ++i) {
    std::vector<float> w(16);
    for (size_t t = 0; t < 16; ++t) {
      w[t] = std::sin((0.3 + 0.9 * (i % 2)) * static_cast<double>(t)) +
             0.05f * static_cast<float>(rng.Normal());
    }
    windows.push_back(std::move(w));
  }
  return windows;
}

/// A selection-only request for a 64-point sine: four windows of the
/// TrainTinySelector input length.
SelectRequest SineSelectRequest(const std::string& selector) {
  SelectRequest request;
  request.selector = selector;
  request.series = ts::TimeSeries("s", std::vector<float>(64, 0.0f));
  for (size_t i = 0; i < request.series.length(); ++i) {
    request.series.mutable_values()[i] =
        std::sin(0.4 * static_cast<double>(i));
  }
  request.run_detection = false;
  return request;
}

std::vector<ts::TimeSeries> MakeLabeledSeries(size_t count, uint64_t seed) {
  std::vector<ts::TimeSeries> series;
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    auto family =
        (i % 2 == 0) ? datagen::Family::kYahoo : datagen::Family::kEcg;
    auto s = datagen::GenerateSeries(family, 320, i, rng);
    KDSEL_CHECK(s.ok());
    series.push_back(std::move(s).value());
  }
  return series;
}

TEST(JsonTest, ParseDumpRoundTrip) {
  const std::string text =
      R"({"op":"select","id":7,"values":[1,-2.5,3e2],"nested":{"a":[true,false,null]},"s":"q\"\\\nA"})";
  auto parsed = Json::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->GetString("op", ""), "select");
  EXPECT_EQ(parsed->GetNumber("id", -1), 7);
  const Json* values = parsed->Find("values");
  ASSERT_NE(values, nullptr);
  ASSERT_EQ(values->items().size(), 3u);
  EXPECT_FLOAT_EQ(static_cast<float>(values->items()[1].as_number()), -2.5f);
  EXPECT_EQ(parsed->GetString("s", ""), "q\"\\\nA");

  auto reparsed = Json::Parse(parsed->Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status();
  EXPECT_EQ(reparsed->Dump(), parsed->Dump());
}

TEST(JsonTest, RejectsMalformedInput) {
  for (const std::string bad :
       {"", "{", "[1,", "{\"a\":}", "{\"a\":1} x", "nul", "\"unterminated",
        "{\"a\":1e999}", "[1 2]"}) {
    EXPECT_FALSE(Json::Parse(bad).ok()) << bad;
  }
}

TEST(LatencyHistogramTest, PercentilesRoughlyCorrect) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.Record(static_cast<double>(i));
  auto s = h.Summarize();
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
  EXPECT_NEAR(s.mean, 500.5, 1e-9);
  // Geometric buckets (2^(1/4) growth) bound relative error at ~19%.
  EXPECT_GT(s.p50, 500.0 * 0.8);
  EXPECT_LT(s.p50, 500.0 * 1.25);
  EXPECT_GT(s.p95, 950.0 * 0.8);
  EXPECT_LE(s.p99, 1000.0);
  EXPECT_GE(s.p99, 990.0 * 0.8);

  h.Reset();
  EXPECT_EQ(h.Summarize().count, 0u);
}

TEST(LatencyHistogramTest, ConcurrentRecordIsConsistent) {
  LatencyHistogram h;
  // Raw threads on purpose: these tests exercise the serving layer
  // under genuinely concurrent clients, outside the shared pool.
  std::vector<std::thread> threads;  // kdsel-lint: allow(raw-thread)
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&h] {
      for (int i = 0; i < 2500; ++i) h.Record(100.0);
    });
  }
  for (auto& t : threads) t.join();
  auto s = h.Summarize();
  EXPECT_EQ(s.count, 10000u);
  EXPECT_DOUBLE_EQ(s.min, 100.0);
  EXPECT_DOUBLE_EQ(s.max, 100.0);
}

TEST(SelectorRegistryTest, RegisterGetEvictVersions) {
  SelectorRegistry registry(core::SelectorManager("/tmp/kdsel_reg_none"));
  EXPECT_FALSE(registry.Get("missing").ok());
  EXPECT_FALSE(registry.Register("", TrainTinySelector()).ok());
  EXPECT_FALSE(registry.Register("x", nullptr).ok());

  ASSERT_TRUE(registry.Register("tiny", TrainTinySelector()).ok());
  auto first = registry.Get("tiny");
  ASSERT_TRUE(first.ok());
  ASSERT_NE(first->selector, nullptr);
  EXPECT_EQ(first->selector->num_classes(), 2u);

  ASSERT_TRUE(registry.Register("tiny", TrainTinySelector()).ok());
  auto second = registry.Get("tiny");
  ASSERT_TRUE(second.ok());
  EXPECT_GT(second->version, first->version);

  EXPECT_EQ(registry.ResidentNames(), std::vector<std::string>{"tiny"});
  EXPECT_TRUE(registry.Evict("tiny"));
  EXPECT_FALSE(registry.Evict("tiny"));
  EXPECT_FALSE(registry.Get("tiny").ok());
}

TEST(SelectorRegistryTest, LoadsAndHotReloadsFromDisk) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kdsel_reg_disk").string();
  std::filesystem::remove_all(dir);
  core::SelectorManager manager(dir);
  auto trained = TrainTinySelector();
  ASSERT_TRUE(manager.Save(*trained, "ondisk").ok());

  SelectorRegistry registry{core::SelectorManager(dir)};
  // Not resident yet; GetOrLoad pulls it from disk.
  EXPECT_FALSE(registry.Get("ondisk").ok());
  auto snapshot = registry.GetOrLoad("ondisk");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status();
  const uint64_t v1 = snapshot->version;

  ASSERT_TRUE(registry.ReloadAll().ok());
  auto reloaded = registry.Get("ondisk");
  ASSERT_TRUE(reloaded.ok());
  EXPECT_GT(reloaded->version, v1);
  // Old snapshot stays valid after the swap (in-flight requests).
  auto preds_old = snapshot->selector->Predict({std::vector<float>(16, 0.5f)});
  auto preds_new = reloaded->selector->Predict({std::vector<float>(16, 0.5f)});
  ASSERT_TRUE(preds_old.ok() && preds_new.ok());
  EXPECT_EQ(*preds_old, *preds_new);
  std::filesystem::remove_all(dir);
}

TEST(TrainedSelectorCloneTest, ClonePredictsIdentically) {
  auto original = TrainTinySelector();
  auto clone = original->Clone();
  ASSERT_TRUE(clone.ok()) << clone.status();
  std::vector<std::vector<float>> windows;
  Rng rng(9);
  for (int i = 0; i < 8; ++i) {
    std::vector<float> w(16);
    for (auto& v : w) v = static_cast<float>(rng.Normal());
    windows.push_back(std::move(w));
  }
  auto a = original->Predict(windows);
  auto b = (*clone)->Predict(windows);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(InferenceServerTest, RejectsBadConfigAndUse) {
  SelectorRegistry registry(core::SelectorManager("/tmp/kdsel_srv_none"));
  {
    InferenceServer server(&registry, ServerOptions{});
    // Not started: submissions are refused.
    SelectRequest request;
    request.selector = "tiny";
    request.series = ts::TimeSeries("x", std::vector<float>(32, 0.0f));
    EXPECT_FALSE(RunRequest(server, std::move(request)).ok());
  }
  {
    ServerOptions bad;
    bad.num_workers = 0;
    InferenceServer server(&registry, bad);
    EXPECT_FALSE(server.Start().ok());
  }
  {
    InferenceServer server(&registry, ServerOptions{});
    ASSERT_TRUE(server.Start().ok());
    SelectRequest request;  // Empty selector name.
    request.series = ts::TimeSeries("x", std::vector<float>(32, 0.0f));
    EXPECT_FALSE(RunRequest(server, std::move(request)).ok());
    // Unknown selector: accepted, resolves to NotFound, and the reply
    // names the selector, not the directory it was looked for in.
    SelectRequest unknown;
    unknown.selector = "ghost";
    unknown.series = ts::TimeSeries("x", std::vector<float>(32, 0.0f));
    auto response = RunRequest(server, std::move(unknown));
    ASSERT_FALSE(response.ok());
    EXPECT_EQ(response.status().code(), StatusCode::kNotFound);
    EXPECT_EQ(response.status().message(), "no saved selector named ghost");
    // A name with a '/' never reaches the filesystem.
    SelectRequest escape;
    escape.selector = "/etc/hostname";
    escape.series = ts::TimeSeries("x", std::vector<float>(32, 0.0f));
    auto escaped = RunRequest(server, std::move(escape));
    ASSERT_FALSE(escaped.ok());
    EXPECT_EQ(escaped.status().code(), StatusCode::kInvalidArgument);
    server.Stop();
    EXPECT_EQ(server.stats().failed(), 2u);
  }
}

// Admission holds the submit lock for a whole SubmitBatch, so no
// worker can take from the queue mid-batch: of queue_capacity + 3 items
// exactly the capacity is admitted, and the 3 overflow items complete
// with the typed backpressure code before SubmitBatch returns.
TEST(InferenceServerTest, SubmitBatchOverflowIsResourceExhausted) {
  SelectorRegistry registry(core::SelectorManager("/tmp/kdsel_srv_none"));
  ASSERT_TRUE(registry.Register("tiny", TrainTinySelector()).ok());
  ServerOptions opts;
  opts.queue_capacity = 4;
  InferenceServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<size_t> exhausted{0}, ok{0}, completed{0};
  std::vector<InferenceServer::AsyncItem> items(opts.queue_capacity + 3);
  for (InferenceServer::AsyncItem& item : items) {
    item.request.selector = "tiny";
    item.request.series = ts::TimeSeries("x", std::vector<float>(32, 0.5f));
    item.request.run_detection = false;
    item.done = [&](StatusOr<SelectResponse> response) {
      if (response.ok()) {
        ok.fetch_add(1);
      } else if (response.status().code() == StatusCode::kResourceExhausted) {
        exhausted.fetch_add(1);
      }
      completed.fetch_add(1);
    };
  }
  server.SubmitBatch(std::move(items));
  EXPECT_EQ(exhausted.load(), 3u);
  server.Stop();  // Drains the admitted requests.
  EXPECT_EQ(completed.load(), opts.queue_capacity + 3);
  EXPECT_EQ(ok.load(), opts.queue_capacity);
  EXPECT_EQ(server.stats().rejected(), 3u);
}

// Workers take straight from the submission queue, so queue_capacity
// bounds every request still waiting for a worker: with the one worker
// busy, the fifth and sixth one-item submissions are refused, however
// far apart they arrive.
TEST(InferenceServerTest, QueueCapacityBoundsTheWholeBacklog) {
  SelectorRegistry registry(core::SelectorManager("/tmp/kdsel_srv_none"));
  ASSERT_TRUE(registry.Register("tiny", TrainTinySelector()).ok());
  ServerOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 4;
  InferenceServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  HeldWorkers held(server, SineSelectRequest("tiny"), opts.num_workers);
  std::vector<std::future<StatusOr<SelectResponse>>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(SubmitOne(server, SineSelectRequest("tiny")));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  held.Release();
  std::vector<std::string> codes;
  for (auto& future : futures) {
    codes.push_back(StatusCodeToString(future.get().status().code()));
  }
  server.Stop();
  EXPECT_EQ(codes, (std::vector<std::string>{"OK", "OK", "OK", "OK",
                                             "ResourceExhausted",
                                             "ResourceExhausted"}));
  EXPECT_EQ(server.stats().rejected(), 2u);
}

// An idle worker takes the oldest queued request plus later ones for the
// same selector, up to max_batch, and leaves the rest in order. With
// both workers busy, six requests over two selectors queue up, spaced
// out in time (batching depends on free workers, not on arrival times);
// once released they go out as {0,2,3}, {1,4} and {5}.
TEST(InferenceServerTest, RequestsQueuedWhileWorkersAreBusyShareABatch) {
  SelectorRegistry registry(core::SelectorManager("/tmp/kdsel_srv_none"));
  auto trained = TrainTinySelector();
  auto other = trained->Clone();
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(registry.Register("tiny", std::move(trained)).ok());
  ASSERT_TRUE(registry.Register("other", std::move(other).value()).ok());
  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 3;
  InferenceServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  HeldWorkers held(server, SineSelectRequest("tiny"), opts.num_workers);
  std::vector<std::future<StatusOr<SelectResponse>>> futures;
  for (const char* selector :
       {"tiny", "other", "tiny", "tiny", "other", "tiny"}) {
    futures.push_back(SubmitOne(server, SineSelectRequest(selector)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  held.Release();
  std::vector<size_t> batch_sizes;
  for (auto& future : futures) {
    auto response = future.get();
    ASSERT_TRUE(response.ok()) << response.status();
    batch_sizes.push_back(response->timing.batch_size);
  }
  server.Stop();
  EXPECT_EQ(batch_sizes, (std::vector<size_t>{3, 2, 3, 3, 2, 1}));
  EXPECT_EQ(server.stats().batches(), opts.num_workers + 3);
}

TEST(InferenceServerTest, MatchesSequentialPipelineByteForByte) {
  SelectorRegistry registry(core::SelectorManager("/tmp/kdsel_srv_none"));
  auto trained = TrainTinySelector();
  auto reference_selector = trained->Clone();
  ASSERT_TRUE(reference_selector.ok());
  ASSERT_TRUE(registry.Register("tiny", std::move(trained)).ok());

  ServerOptions opts;
  opts.num_workers = 4;
  opts.max_batch = 8;
  opts.detector_seed = 42;
  InferenceServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  const auto series = MakeLabeledSeries(6, 11);
  // Sequential reference: the exact offline pipeline on the same models.
  auto models = tsad::BuildDefaultModelSet(opts.detector_seed);
  ts::WindowOptions wo;
  wo.length = (*reference_selector)->input_length();
  wo.stride = wo.length;
  std::vector<core::DetectionResult> reference;
  for (const auto& s : series) {
    auto r = core::DetectWithSelection(**reference_selector, models, s, wo);
    ASSERT_TRUE(r.ok()) << r.status();
    reference.push_back(std::move(r).value());
  }

  // 64 concurrent requests from 8 client threads.
  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 8;
  std::vector<std::thread> clients;  // kdsel-lint: allow(raw-thread)
  std::atomic<int> mismatches{0}, failures{0};
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = 0; r < kPerClient; ++r) {
        const size_t idx = (c * kPerClient + r) % series.size();
        SelectRequest request;
        request.selector = "tiny";
        request.series = series[idx];
        auto response = RunRequest(server, std::move(request));
        if (!response.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const core::DetectionResult& expected = reference[idx];
        if (response->result.selected_model != expected.selected_model ||
            response->result.votes != expected.votes ||
            response->result.model_name != expected.model_name ||
            response->result.anomaly_scores != expected.anomaly_scores ||
            response->result.auc_pr != expected.auc_pr) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  server.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.stats().submitted(), kClients * kPerClient);
  EXPECT_EQ(server.stats().completed(), kClients * kPerClient);
  EXPECT_EQ(server.stats().failed(), 0u);
  EXPECT_GE(server.stats().batches(), 1u);
  auto detect_summary =
      server.stats().endpoint(ServerStats::Endpoint::kDetect).total.Summarize();
  EXPECT_EQ(detect_summary.count, kClients * kPerClient);
  EXPECT_GT(detect_summary.p99, 0.0);
}

TEST(InferenceServerTest, HotReloadDuringInFlightRequestsIsRaceFree) {
  SelectorRegistry registry(core::SelectorManager("/tmp/kdsel_srv_none"));
  auto trained = TrainTinySelector();
  auto reference_selector = trained->Clone();
  ASSERT_TRUE(reference_selector.ok());
  ASSERT_TRUE(registry.Register("tiny", std::move(trained)).ok());

  ServerOptions opts;
  opts.num_workers = 4;
  opts.max_batch = 4;
  InferenceServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  const auto series = MakeLabeledSeries(4, 21);
  std::vector<std::vector<int>> reference_votes;
  {
    auto models = tsad::BuildDefaultModelSet(opts.detector_seed);
    ts::WindowOptions wo;
    wo.length = (*reference_selector)->input_length();
    wo.stride = wo.length;
    for (const auto& s : series) {
      auto sel = core::SelectSeriesModel(**reference_selector, s, wo,
                                         models.size());
      ASSERT_TRUE(sel.ok());
      reference_votes.push_back(sel->votes);
    }
  }

  std::atomic<bool> stop_reloading{false};
  // Reloader: keeps swapping in new snapshots (same weights, so results
  // must stay stable) while clients hammer the server.
  std::thread reloader([&] {  // kdsel-lint: allow(raw-thread)
    while (!stop_reloading.load()) {
      auto snapshot = registry.Get("tiny");
      ASSERT_TRUE(snapshot.ok());
      auto clone = snapshot->selector->Clone();
      ASSERT_TRUE(clone.ok());
      ASSERT_TRUE(registry.Register("tiny", std::move(clone).value()).ok());
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  constexpr size_t kClients = 8;
  constexpr size_t kPerClient = 8;
  std::atomic<int> mismatches{0}, failures{0};
  std::vector<std::thread> clients;  // kdsel-lint: allow(raw-thread)
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = 0; r < kPerClient; ++r) {
        const size_t idx = (c + r) % series.size();
        SelectRequest request;
        request.selector = "tiny";
        request.series = series[idx];
        request.run_detection = false;  // Selection-only: exercises batching.
        auto response = RunRequest(server, std::move(request));
        if (!response.ok()) {
          failures.fetch_add(1);
        } else if (response->result.votes != reference_votes[idx]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  stop_reloading.store(true);
  reloader.join();
  server.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(server.stats().completed(), kClients * kPerClient);
}

TEST(InferenceServerTest, MicroBatchesGroupConcurrentRequests) {
  SelectorRegistry registry(core::SelectorManager("/tmp/kdsel_srv_none"));
  ASSERT_TRUE(registry.Register("tiny", TrainTinySelector()).ok());

  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 4;
  InferenceServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  // One SubmitBatch, as one epoll wake submits: all four are queued
  // under one lock before any worker can take one.
  std::vector<SelectRequest> requests(4, SineSelectRequest("tiny"));
  auto futures = SubmitTogether(server, std::move(requests));
  for (auto& f : futures) {
    auto response = f.get();
    ASSERT_TRUE(response.ok()) << response.status();
    // So the first idle worker took them as one batch of max_batch = 4.
    EXPECT_EQ(response->timing.batch_size, 4u);
    EXPECT_EQ(response->num_windows, 4u);  // 64-point series, window 16.
    EXPECT_FALSE(response->result.model_name.empty());
    EXPECT_TRUE(response->result.anomaly_scores.empty());
  }
  server.Stop();
  EXPECT_DOUBLE_EQ(server.stats().MeanBatchSize(), 4.0);
  // Four requests of four windows each, all in one forward.
  EXPECT_EQ(server.stats().rows_total(), 16u);

  // Stats JSON snapshot is parseable and carries the counters.
  auto stats_json = Json::Parse(server.stats().ToJsonString());
  ASSERT_TRUE(stats_json.ok()) << stats_json.status();
  EXPECT_EQ(stats_json->GetNumber("completed", -1), 4.0);
  const Json* endpoints = stats_json->Find("endpoints");
  ASSERT_NE(endpoints, nullptr);
  const Json* select_ep = endpoints->Find("select");
  ASSERT_NE(select_ep, nullptr);
  EXPECT_EQ(select_ep->GetNumber("completed", -1), 4.0);
}

// A series that yields no windows fails its own request only: the rest
// of its micro-batch is selected in the same forward, as if alone.
TEST(InferenceServerTest, BadSeriesFailsAloneInItsBatch) {
  SelectorRegistry registry(core::SelectorManager("/tmp/kdsel_srv_none"));
  auto trained = TrainTinySelector();
  auto reference_selector = trained->Clone();
  ASSERT_TRUE(reference_selector.ok());
  ASSERT_TRUE(registry.Register("tiny", std::move(trained)).ok());

  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 4;
  InferenceServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  const auto series = MakeLabeledSeries(2, 33);
  std::vector<SelectRequest> requests(3, SineSelectRequest("tiny"));
  requests[0].series = series[0];
  requests[1].series = ts::TimeSeries("empty", std::vector<float>{});
  requests[2].series = series[1];
  auto futures = SubmitTogether(server, requests);

  const size_t num_classes =
      tsad::BuildDefaultModelSet(opts.detector_seed).size();
  ts::WindowOptions wo;
  wo.length = (*reference_selector)->input_length();
  wo.stride = wo.length;
  for (const size_t i : {size_t{0}, size_t{2}}) {
    auto response = futures[i].get();
    ASSERT_TRUE(response.ok()) << i << ": " << response.status();
    EXPECT_EQ(response->timing.batch_size, 3u) << i;
    auto expected = core::SelectSeriesModel(
        **reference_selector, requests[i].series, wo, num_classes);
    ASSERT_TRUE(expected.ok()) << expected.status();
    EXPECT_EQ(response->result.selected_model, expected->model) << i;
    EXPECT_EQ(response->result.votes, expected->votes) << i;
    EXPECT_EQ(response->num_windows, expected->num_windows) << i;
  }
  auto bad = futures[1].get();
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(bad.status().message(), "series produced no windows");
  server.Stop();
  EXPECT_EQ(server.stats().failed(), 1u);
  EXPECT_EQ(server.stats().completed(), 2u);
}

TEST(ProtocolTest, ParseRequestLineValidatesInput) {
  auto ok = ParseRequestLine(
      R"({"op":"select","id":3,"selector":"s","values":[1,2,3],"labels":[0,0,1],"detect":false,"scores":true})");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(ok->op, WireRequest::Op::kSelect);
  EXPECT_EQ(ok->id, 3);
  EXPECT_EQ(ok->selector, "s");
  EXPECT_FALSE(ok->detect);
  EXPECT_TRUE(ok->want_scores);
  EXPECT_EQ(ok->series.length(), 3u);
  EXPECT_TRUE(ok->series.has_labels());

  // "stats" is the "ops" snapshot; a "view" on a stats line is ignored.
  for (const std::string line :
       {R"({"op":"stats","id":4})", R"({"op":"stats","id":4,"view":"flight"})",
        R"({"op":"stats","id":4,"view":"nope"})"}) {
    auto stats = ParseRequestLine(line);
    ASSERT_TRUE(stats.ok()) << line << ": " << stats.status();
    EXPECT_EQ(stats->op, WireRequest::Op::kOps) << line;
    EXPECT_EQ(stats->view, "snapshot") << line;
    EXPECT_EQ(stats->id, 4) << line;
  }
  EXPECT_FALSE(ParseRequestLine(R"({"op":"ops","view":"nope"})").ok());

  EXPECT_FALSE(ParseRequestLine("not json").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"op":"explode"})").ok());
  EXPECT_FALSE(ParseRequestLine(R"({"op":"select","selector":"s"})").ok());
  EXPECT_FALSE(
      ParseRequestLine(R"({"op":"select","values":[1,2]})").ok());
  EXPECT_FALSE(ParseRequestLine(
                   R"({"op":"select","selector":"s","values":[1,"x"]})")
                   .ok());
  // Labels/values length mismatch is rejected by TimeSeries::SetLabels.
  EXPECT_FALSE(
      ParseRequestLine(
          R"({"op":"select","selector":"s","values":[1,2],"labels":[1]})")
          .ok());
}

// JSON ids are doubles: one past +-2^53 is not exact, one past int64_t
// would make the conversion undefined. Both are rejected under id -1.
TEST(ProtocolTest, IdOutsideDoublePrecisionIsRejected) {
  for (const std::string line :
       {R"({"op":"list","id":1e30})",
        R"({"id":1234567890123456789012345,"op":"bogus"})",
        R"({"op":"list","id":-9007199254740994})"}) {
    int64_t error_id = 0;
    auto parsed = ParseRequestLine(line, &error_id);
    ASSERT_FALSE(parsed.ok()) << line;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << line;
    EXPECT_EQ(error_id, -1) << line;
  }
  auto edge = ParseRequestLine(R"({"op":"list","id":9007199254740992})");
  ASSERT_TRUE(edge.ok()) << edge.status();
  EXPECT_EQ(edge->id, int64_t{1} << 53);
}

// A value whose double lies beyond float range would narrow to +-inf,
// and z-normalization would turn its windows into NaN.
TEST(ProtocolTest, ValuesBeyondFloatRangeAreOutOfRange) {
  for (const char* detect : {"true", "false"}) {
    for (const char* token : {"1e39", "-1e39", "3.4028236e38"}) {
      const std::string line =
          std::string(R"({"op":"select","id":7,"selector":"s","detect":)") +
          detect + R"(,"values":[0.5,)" + token + "]}";
      int64_t error_id = -2;
      auto parsed = ParseRequestLine(line, &error_id);
      ASSERT_FALSE(parsed.ok()) << line;
      EXPECT_EQ(parsed.status().code(), StatusCode::kOutOfRange) << line;
      EXPECT_NE(parsed.status().message().find("\"values\"[1]"),
                std::string::npos)
          << parsed.status();
      EXPECT_EQ(error_id, 7) << line;
    }
  }
  // The decimal below the midpoint to 2^128 rounds to FLT_MAX: served.
  auto edge = ParseRequestLine(
      R"({"op":"select","id":8,"selector":"s","values":[3.4028235e38]})");
  ASSERT_TRUE(edge.ok()) << edge.status();
  EXPECT_EQ(edge->series.values()[0], FLT_MAX);
  // A double overflow is the JSON layer's invalid number instead.
  int64_t error_id = -2;
  auto overflow = ParseRequestLine(
      R"({"op":"select","id":9,"selector":"s","values":[1e400]})", &error_id);
  ASSERT_FALSE(overflow.ok());
  EXPECT_EQ(overflow.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(overflow.status().message().find("json: invalid number"),
            std::string::npos)
      << overflow.status();
  EXPECT_EQ(error_id, -1);
}

// ---------------------------------------------------------------------
// The select scanner (ScanSelectLine) against the strict parser: every
// line it accepts must read exactly as ParseRequestLineStrict reads it,
// and ParseRequestLine must answer every line as the strict parser does.

/// std::to_chars' shortest round-trip form, as perfbench writes values.
void AppendShortest(std::string& out, float v) {
  char buf[48];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

/// Python's float repr, as json.dumps writes it: the shortest digits,
/// fixed notation for decimal exponents in [-4, 16) with at least one
/// fractional digit, scientific otherwise.
void AppendPythonFloat(std::string& out, double v) {
  char buf[48];
  auto res = std::to_chars(buf, buf + sizeof(buf), v,
                           std::chars_format::scientific);
  const char* digits = std::find(buf, res.ptr, 'e') + 1;
  if (*digits == '+') ++digits;
  int exponent = 0;
  std::from_chars(digits, res.ptr, exponent);
  if (exponent >= -4 && exponent < 16) {
    res = std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::fixed);
    std::string fixed(buf, res.ptr);
    if (fixed.find('.') == std::string::npos) fixed += ".0";
    out += fixed;
    return;
  }
  out.append(buf, res.ptr);
}

/// A normal draw at a random decimal scale.
double ScaledNormal(Rng& rng) {
  return rng.Normal() * std::pow(10.0, static_cast<double>(rng.Int(-6, 6)));
}

/// A select line as perfbench/serve.cc writes it.
std::string PerfbenchSelectLine(Rng& rng, int64_t id) {
  std::string line = "{\"op\":\"select\",\"id\":" + std::to_string(id) +
                     ",\"selector\":\"fleet\",\"variant\":\"";
  line += rng.Bernoulli(0.5) ? "int8" : "fp32";
  line += "\",\"detect\":false";
  if (rng.Bernoulli(0.5)) {
    line += ",\"trace\":\"r" + std::to_string(id) + "\"";
  }
  line += ",\"values\":[";
  const size_t n = 16 + rng.Index(300);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) line.push_back(',');
    AppendShortest(line, static_cast<float>(ScaledNormal(rng)));
  }
  line += "]}";
  return line;
}

/// A select line as tools/ndjson_load.py writes it (json.dumps).
std::string PythonSelectLine(Rng& rng, int64_t id) {
  std::string line = "{\"op\": \"select\", \"id\": " + std::to_string(id) +
                     ", \"selector\": \"bench\", \"values\": [";
  const double phase = rng.Uniform(0.0, 6.3);
  for (int t = 0; t < 64; ++t) {
    if (t > 0) line += ", ";
    AppendPythonFloat(line,
                      std::round(std::sin(0.05 * t + phase) * 1e4) / 1e4);
  }
  line += "], \"detect\": false}";
  return line;
}

/// Zero to two bytes of JSON whitespace.
std::string RandomSpace(Rng& rng) {
  static const char kSpace[] = {' ', '\t', '\r', '\n'};
  std::string out;
  for (int64_t n = rng.Int(0, 2); n > 0; --n) out += kSpace[rng.Index(4)];
  return out;
}

/// A valid select in any member order and spacing, drawing the optional
/// members (variant, detect, scores, trace, name, labels) at random and
/// writing each value in one of several number styles.
std::string ShuffledSelectLine(Rng& rng, int64_t id) {
  const size_t n = 1 + rng.Index(80);
  std::string values = "[";
  std::string labels = "[";
  for (size_t i = 0; i < n; ++i) {
    if (i > 0) {
      values += RandomSpace(rng) + "," + RandomSpace(rng);
      labels += RandomSpace(rng) + "," + RandomSpace(rng);
    }
    const double v = ScaledNormal(rng);
    char buf[48];
    switch (rng.Index(4)) {
      case 0:
        AppendShortest(values, static_cast<float>(v));
        break;
      case 1:
        AppendPythonFloat(values, v);
        break;
      case 2:
        std::snprintf(buf, sizeof(buf), "%.9g", v);
        values += buf;
        break;
      default:
        values += std::to_string(static_cast<int64_t>(v * 100.0));
    }
    static const char* kLabels[] = {"0", "1", "0.0", "2", "-1", "1e0"};
    labels += kLabels[rng.Index(6)];
  }
  values += "]";
  labels += "]";

  std::vector<std::string> members = {
      "\"selector\"" + RandomSpace(rng) + ":" + RandomSpace(rng) + "\"sel\"",
      "\"values\"" + RandomSpace(rng) + ":" + RandomSpace(rng) + values};
  auto maybe = [&](const std::string& key, const std::string& value) {
    if (rng.Bernoulli(0.5)) {
      members.push_back("\"" + key + "\"" + RandomSpace(rng) + ":" +
                        RandomSpace(rng) + value);
    }
  };
  maybe("op", "\"select\"");
  maybe("id", std::to_string(id));
  maybe("variant", rng.Bernoulli(0.5) ? "\"int8\"" : "\"fp32\"");
  maybe("detect", rng.Bernoulli(0.5) ? "true" : "false");
  maybe("scores", rng.Bernoulli(0.5) ? "true" : "false");
  maybe("trace", rng.Bernoulli(0.5) ? "\"t-" + std::to_string(id) + "\""
                                    : "\"has space\"");
  maybe("name", "\"series " + std::to_string(id) + "\"");
  maybe("labels", labels);
  rng.Shuffle(members);

  std::string line = RandomSpace(rng) + "{" + RandomSpace(rng);
  for (size_t i = 0; i < members.size(); ++i) {
    if (i > 0) line += RandomSpace(rng) + "," + RandomSpace(rng);
    line += members[i];
  }
  line += RandomSpace(rng) + "}" + RandomSpace(rng);
  return line;
}

/// A decimal of 17 to 20 significant digits at, or one double away
/// from, the midpoint between two adjacent floats: the inputs on which
/// one rounding (decimal to float) and two (decimal to double to float)
/// can disagree.
std::string FloatMidpointDecimal(Rng& rng) {
  const float lo = static_cast<float>(
      rng.Normal() * std::pow(10.0, static_cast<double>(rng.Int(-35, 35))));
  const float hi = std::nextafter(lo, std::numeric_limits<float>::infinity());
  double mid = (static_cast<double>(lo) + static_cast<double>(hi)) / 2.0;
  if (rng.Bernoulli(0.5)) {
    mid = std::nextafter(mid, rng.Bernoulli(0.5) ? 1e300 : -1e300);
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", static_cast<int>(rng.Int(17, 20)),
                mid);
  return buf;
}

/// Number tokens that sit at an edge of JSON's grammar, of the double or
/// float range, or of what strtod accepts.
const std::vector<std::string>& EdgeNumberTokens() {
  static const std::vector<std::string> tokens = {
      "+1", ".5", "1.", "01", "-01", "00", "-", "1e", "1e+", "1.5e",
      "1e5e5", "1.2.3", "0x10", "nan", "inf", "-0", "0e-400", "1E5",
      "1e+05", "1e39", "-1e39", "3.4028236e38", "3.4028235e38", "1e-310",
      "1e-400", "1e400", "4.9e-324", "2.2250738585072014e-308",
      "2.2250738585072011e-308", "1.7976931348623157e308", "1.8e308",
      "1e-45", "1e-46", "123456789012345678901234567890",
      "0.000000000000000000000000000000000000000000001"};
  return tokens;
}

/// Replaces one random number token of the "values" array with `token`.
std::string ReplaceValue(Rng& rng, const std::string& line,
                         const std::string& token) {
  const size_t open = line.find('[', line.find("\"values\""));
  if (open == std::string::npos) return line;
  const size_t close = line.find(']', open);
  std::vector<size_t> starts;
  for (size_t i = open + 1; i < close; ++i) {
    const char c = line[i];
    const char prev = line[i - 1];
    if ((c == '-' || (c >= '0' && c <= '9')) &&
        (prev == '[' || prev == ',' || prev == ' ' || prev == '\t' ||
         prev == '\r' || prev == '\n')) {
      starts.push_back(i);
    }
  }
  if (starts.empty()) return line;
  const size_t begin = starts[rng.Index(starts.size())];
  size_t end = begin + 1;
  while (end < close && line[end] != ',' && line[end] != ' ' &&
         line[end] != '\t' && line[end] != '\r' && line[end] != '\n') {
    ++end;
  }
  return line.substr(0, begin) + token + line.substr(end);
}

/// Members inserted right after the opening brace: repeated keys,
/// unknown (and nested) fields, wrong types, escapes and control ops.
const std::vector<std::string>& InsertedMembers() {
  static const std::vector<std::string> members = {
      R"("op":5)", R"("op":"list")", R"("op":"select")",
      R"("id":"7")", R"("id":1e30)", R"("id":-9007199254740994)",
      R"("id":9007199254740992)", R"("id":2.5)", R"("id":-0.5)",
      R"("selector":"other")", R"("selector":"bench")",
      R"("selector":"")", R"("selector":5)", R"("values":[1,2])",
      R"("values":[])", R"("values":null)", R"("labels":[])",
      R"("labels":[1])", R"("labels":"x")", R"("detect":1)",
      R"("detect":null)", R"("scores":true)", R"("variant":"int4")",
      R"("variant":"int8")", R"("name":"a\"b")", R"("name":7)",
      R"("trace":"way-too-long-for-a-trace-id-0123")",
      R"("trace":"t\/1")", R"("view":"flight")",
      R"("meta":{"a":[1,{"b":null}],"c":"d"})", R"("values":[3])",
      R"("extra":[[[[1]]]])"};
  return members;
}

/// Mutations of one valid line: byte flips, truncations, edge number
/// tokens, float-midpoint decimals and inserted members.
std::vector<std::string> MutateSelectLine(Rng& rng, const std::string& line) {
  static const char kBytes[] = {'"', '\\', ',', ':', '[', ']', '{', '}',
                                '0', '9', '-', '+', '.', 'e', 'E', ' ',
                                'x', '\0', '\n', '\x7f', '\xff'};
  std::vector<std::string> out;
  for (int i = 0; i < 2; ++i) {
    std::string flipped = line;
    flipped[rng.Index(flipped.size())] =
        rng.Bernoulli(0.7) ? kBytes[rng.Index(sizeof(kBytes))]
                           : static_cast<char>(rng.Int(0, 255));
    out.push_back(std::move(flipped));
  }
  out.push_back(line.substr(0, rng.Index(line.size())));
  const auto& tokens = EdgeNumberTokens();
  out.push_back(ReplaceValue(rng, line, tokens[rng.Index(tokens.size())]));
  out.push_back(ReplaceValue(rng, line, FloatMidpointDecimal(rng)));
  const auto& members = InsertedMembers();
  const size_t brace = line.find('{');
  if (brace != std::string::npos) {
    out.push_back(line.substr(0, brace + 1) +
                  members[rng.Index(members.size())] + "," +
                  line.substr(brace + 1));
  }
  return out;
}

/// Field-by-field difference of two requests, "" when they are equal.
/// Values and labels compare bytewise, so -0 against 0 is a difference.
std::string RequestDiff(const WireRequest& a, const WireRequest& b) {
  if (a.op != b.op) return "op";
  if (a.id != b.id) return "id";
  if (a.selector != b.selector) return "selector";
  if (a.detect != b.detect) return "detect";
  if (a.want_scores != b.want_scores) return "scores";
  if (a.trace != b.trace) return "trace";
  if (a.view != b.view) return "view";
  if (a.series.name() != b.series.name()) return "name";
  if (a.series.metadata() != b.series.metadata()) return "metadata";
  const auto& av = a.series.values();
  const auto& bv = b.series.values();
  if (av.size() != bv.size() ||
      (!av.empty() &&
       std::memcmp(av.data(), bv.data(), av.size() * sizeof(float)) != 0)) {
    return "values";
  }
  const auto& al = a.series.labels();
  const auto& bl = b.series.labels();
  if (al.size() != bl.size() ||
      (!al.empty() && std::memcmp(al.data(), bl.data(), al.size()) != 0)) {
    return "labels";
  }
  return "";
}

/// Checks one line against the strict parser; counts scanner accepts.
void CheckAgainstStrict(const std::string& line, size_t* accepted) {
  int64_t strict_id = -2;
  const auto strict = ParseRequestLineStrict(line, &strict_id);
  WireRequest scanned;
  if (ScanSelectLine(line, &scanned)) {
    ++*accepted;
    ASSERT_TRUE(strict.ok()) << "scanned a line the strict parser refuses ("
                             << strict.status() << "): " << line;
    ASSERT_EQ(RequestDiff(scanned, *strict), "") << line;
  }
  int64_t error_id = -2;
  const auto parsed = ParseRequestLine(line, &error_id);
  ASSERT_EQ(error_id, strict_id) << line;
  ASSERT_EQ(parsed.ok(), strict.ok()) << line;
  if (strict.ok()) {
    ASSERT_EQ(RequestDiff(*parsed, *strict), "") << line;
  } else {
    ASSERT_EQ(parsed.status().ToString(), strict.status().ToString()) << line;
  }
}

TEST(SelectScannerTest, AgreesWithTheStrictParserOnMutatedLines) {
  Rng rng(22);
  size_t lines = 0;
  size_t accepted = 0;
  size_t unmutated_accepted = 0;
  for (int64_t id = 0; id < 300; ++id) {
    for (const std::string& base :
         {PerfbenchSelectLine(rng, id), PythonSelectLine(rng, id),
          ShuffledSelectLine(rng, id)}) {
      // Real traffic must stay on the scanner.
      WireRequest scanned;
      ASSERT_TRUE(ScanSelectLine(base, &scanned)) << base;
      ++unmutated_accepted;
      ASSERT_NO_FATAL_FAILURE(CheckAgainstStrict(base, &accepted));
      for (const std::string& line : MutateSelectLine(rng, base)) {
        ++lines;
        ASSERT_NO_FATAL_FAILURE(CheckAgainstStrict(line, &accepted));
      }
    }
  }
  // The mutations exercise both outcomes.
  EXPECT_GT(accepted, unmutated_accepted + lines / 10);
  EXPECT_LT(accepted, unmutated_accepted + lines * 9 / 10);
}

TEST(SelectScannerTest, DeclinesWhatOnlyTheStrictParserReads) {
  WireRequest scanned;
  ASSERT_TRUE(
      ScanSelectLine(R"({"values":[0.25,-1.5e3],"selector":"s"})", &scanned));
  EXPECT_EQ(scanned.op, WireRequest::Op::kSelect);
  EXPECT_EQ(scanned.id, -1);
  EXPECT_EQ(scanned.series.name(), "wire");
  EXPECT_EQ(scanned.series.values(), (std::vector<float>{0.25f, -1500.0f}));

  // Read alike by the strict parser, but outside the scanner's subset.
  const std::string head = R"({"op":"select","id":5,"selector":"s",)";
  for (const std::string& line :
       {head + R"("values":[+1]})", head + R"("values":[.5]})",
        head + R"("values":[1.]})", head + R"("values":[01]})",
        head + R"("selector":"t","values":[0.25]})",
        head + R"("meta":{"a":[1]},"values":[0.25]})",
        std::string(R"({"op":"select","selector":"\u0073","values":[1]})"),
        std::string(R"({"op":5,"id":5,"selector":"s","values":[0.25]})"),
        std::string(R"({"id":"7","selector":"s","values":[0.25]})")}) {
    EXPECT_FALSE(ScanSelectLine(line, &scanned)) << line;
    auto strict = ParseRequestLineStrict(line);
    EXPECT_TRUE(strict.ok()) << line << ": " << strict.status();
  }
  // Refused by the strict parser: the scanner leaves the wording to it.
  for (const char* token : {"1e39", "3.4028236e38", "1e-310", "1e400"}) {
    const std::string line = head + R"("values":[)" + token + "]}";
    EXPECT_FALSE(ScanSelectLine(line, &scanned)) << line;
    EXPECT_FALSE(ParseRequestLineStrict(line).ok()) << line;
  }
  EXPECT_FALSE(ScanSelectLine(R"({"op":"list","id":1})", &scanned));
}

TEST(ProtocolTest, NdjsonSessionEndToEnd) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kdsel_proto_dir").string();
  std::filesystem::remove_all(dir);
  core::SelectorManager manager(dir);
  auto trained = TrainTinySelector();
  ASSERT_TRUE(manager.Save(*trained, "tiny").ok());

  SelectorRegistry registry{core::SelectorManager(dir)};
  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 4;
  InferenceServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  std::string values = "[";
  for (int i = 0; i < 64; ++i) {
    if (i) values += ",";
    values += std::to_string(i);
  }
  values += "]";

  const std::string in =
      R"({"op":"list","id":1})"
      "\n"
      R"({"op":"select","id":2,"selector":"tiny","values":)" +
      values +
      R"(,"detect":false})"
      "\n"
      R"({"op":"reload","id":3,"selector":"tiny"})"
      "\n"
      R"({"op":"reload","id":4,"selector":"ghost"})"
      "\n"
      "this is not json\n"
      R"({"op":"stats","id":5})"
      "\n"
      R"({"op":"quit"})"
      "\n";
  const std::vector<std::string> lines =
      Lines(RunAdoptedSession(server, in).output);
  server.Stop();
  ASSERT_EQ(lines.size(), 6u);

  auto list_reply = Json::Parse(lines[0]);
  ASSERT_TRUE(list_reply.ok());
  EXPECT_EQ(list_reply->GetNumber("id", -1), 1.0);
  EXPECT_TRUE(list_reply->GetBool("ok", false));
  const Json* on_disk = list_reply->Find("on_disk");
  ASSERT_NE(on_disk, nullptr);
  ASSERT_EQ(on_disk->items().size(), 1u);
  EXPECT_EQ(on_disk->items()[0].as_string(), "tiny");

  auto select_reply = Json::Parse(lines[1]);
  ASSERT_TRUE(select_reply.ok());
  EXPECT_EQ(select_reply->GetNumber("id", -1), 2.0);
  EXPECT_TRUE(select_reply->GetBool("ok", false));
  EXPECT_EQ(select_reply->GetNumber("num_windows", -1), 4.0);
  EXPECT_GE(select_reply->GetNumber("batch_size", -1), 1.0);

  auto reload_reply = Json::Parse(lines[2]);
  ASSERT_TRUE(reload_reply.ok());
  EXPECT_TRUE(reload_reply->GetBool("ok", false));

  auto ghost_reply = Json::Parse(lines[3]);
  ASSERT_TRUE(ghost_reply.ok());
  EXPECT_FALSE(ghost_reply->GetBool("ok", true));
  EXPECT_EQ(ghost_reply->GetString("error", ""),
            "NotFound: no saved selector named ghost");

  auto bad_reply = Json::Parse(lines[4]);
  ASSERT_TRUE(bad_reply.ok());
  EXPECT_FALSE(bad_reply->GetBool("ok", true));

  auto stats_reply = Json::Parse(lines[5]);
  ASSERT_TRUE(stats_reply.ok());
  const Json* stats = stats_reply->Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->GetNumber("completed", -1), 1.0);
  std::filesystem::remove_all(dir);
}

// Malformed input must not end the session, and the error reply must
// carry the best id the parser could recover: -1 for non-JSON garbage,
// the request's own id when the line was a well-formed JSON object that
// failed validation.
TEST(InferenceServerTest, ServeLoopRecoversIdsFromMalformedLines) {
  SelectorRegistry registry(core::SelectorManager("/tmp/kdsel_srv_badid"));
  ASSERT_TRUE(registry.Register("tiny", TrainTinySelector()).ok());
  ServerOptions opts;
  opts.num_workers = 2;
  InferenceServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  std::string values = "[";
  for (int i = 0; i < 16; ++i) {
    if (i) values += ",";
    values += std::to_string(std::sin(0.3 * static_cast<double>(i)));
  }
  values += "]";

  const std::string in =
      std::string("not json at all\n") +                         // -> id -1
      R"({"op":"select","id":41,"selector":"tiny","values":[]})" // -> id 41
      "\n"
      R"({"op":"frobnicate","id":42})"                          // -> id 42
      "\n" +
      R"({"op":"select","id":43,"selector":"tiny","values":)" + values +
      R"(,"detect":false})"
      "\n"
      R"({"op":"select","id":44,"selector":"tiny","values":[1e39,)" +
      values.substr(1) +
      "}\n"
      R"({"op":"quit"})"
      "\n";
  const std::vector<std::string> lines =
      Lines(RunAdoptedSession(server, in).output);
  server.Stop();
  ASSERT_EQ(lines.size(), 5u);

  auto garbage = Json::Parse(lines[0]);
  ASSERT_TRUE(garbage.ok());
  EXPECT_FALSE(garbage->GetBool("ok", true));
  EXPECT_EQ(garbage->GetNumber("id", 0), -1.0);

  auto empty_values = Json::Parse(lines[1]);
  ASSERT_TRUE(empty_values.ok());
  EXPECT_FALSE(empty_values->GetBool("ok", true));
  EXPECT_EQ(empty_values->GetNumber("id", 0), 41.0);

  auto bad_op = Json::Parse(lines[2]);
  ASSERT_TRUE(bad_op.ok());
  EXPECT_FALSE(bad_op->GetBool("ok", true));
  EXPECT_EQ(bad_op->GetNumber("id", 0), 42.0);

  // The session survived all three and still serves real requests.
  auto good = Json::Parse(lines[3]);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->GetBool("ok", false)) << lines[3];
  EXPECT_EQ(good->GetNumber("id", 0), 43.0);

  // A value beyond float range is refused under the request's own id.
  auto too_big = Json::Parse(lines[4]);
  ASSERT_TRUE(too_big.ok());
  EXPECT_FALSE(too_big->GetBool("ok", true));
  EXPECT_EQ(too_big->GetNumber("id", 0), 44.0);
  EXPECT_EQ(too_big->GetString("error", "").rfind("OutOfRange: ", 0), 0u)
      << lines[4];
}

// A/B serving: fp32 under "tiny" and its quantized sibling under
// "tiny.int8" live in the registry at once. The wire protocol routes via
// the optional "variant" field, the int8 entry hot-reloads while fp32
// keeps serving, and the stats reply attributes requests per variant.
TEST(InferenceServerTest, ServesFp32AndInt8VariantsSideBySide) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "kdsel_srv_int8").string();
  std::filesystem::remove_all(dir);
  core::SelectorManager manager(dir);
  auto trained = TrainTinySelector();
  auto quantized = trained->QuantizeInt8(TinyCalibrationWindows());
  ASSERT_TRUE(quantized.ok()) << quantized.status();
  ASSERT_TRUE((*quantized)->IsInt8());
  ASSERT_TRUE(manager.Save(*trained, "tiny").ok());
  ASSERT_TRUE(manager.Save(**quantized, "tiny.int8").ok());

  SelectorRegistry registry{core::SelectorManager(dir)};
  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 4;
  InferenceServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  std::string values = "[";
  for (int i = 0; i < 64; ++i) {
    if (i) values += ",";
    values += std::to_string(std::sin(0.4 * static_cast<double>(i)));
  }
  values += "]";
  const std::string base =
      R"("selector":"tiny","values":)" + values + R"(,"detect":false)";

  const std::string in =
      R"({"op":"select","id":1,)" + base + "}\n" +
      R"({"op":"select","id":2,"variant":"int8",)" + base + "}\n" +
      R"({"op":"select","id":3,"variant":"fp32",)" + base + "}\n" +
      R"({"op":"select","id":4,"variant":"int4",)" + base + "}\n" +
      R"({"op":"reload","id":5,"selector":"tiny.int8"})" "\n" +
      R"({"op":"stats","id":6})" "\n" +
      R"({"op":"quit"})" "\n";
  const std::vector<std::string> lines =
      Lines(RunAdoptedSession(server, in).output);
  server.Stop();
  ASSERT_EQ(lines.size(), 6u);

  // Default, explicit-fp32 and int8 routes all serve successfully.
  for (int i : {0, 1, 2}) {
    auto reply = Json::Parse(lines[static_cast<size_t>(i)]);
    ASSERT_TRUE(reply.ok()) << lines[static_cast<size_t>(i)];
    EXPECT_TRUE(reply->GetBool("ok", false)) << lines[static_cast<size_t>(i)];
    EXPECT_FALSE(reply->GetString("model", "").empty());
  }
  // Unknown variant is rejected at parse time, not served as fp32.
  auto bad_variant = Json::Parse(lines[3]);
  ASSERT_TRUE(bad_variant.ok());
  EXPECT_FALSE(bad_variant->GetBool("ok", true));
  EXPECT_NE(bad_variant->GetString("error", "").find("variant"),
            std::string::npos);
  // The int8 entry hot-reloads independently of the serving fp32 entry.
  auto reload_reply = Json::Parse(lines[4]);
  ASSERT_TRUE(reload_reply.ok());
  EXPECT_TRUE(reload_reply->GetBool("ok", false)) << lines[4];

  // Per-variant attribution: 2 fp32 selects (default + explicit), 1 int8.
  EXPECT_EQ(server.stats().fp32_requests(), 2u);
  EXPECT_EQ(server.stats().int8_requests(), 1u);
  auto stats_reply = Json::Parse(lines[5]);
  ASSERT_TRUE(stats_reply.ok());
  const Json* stats = stats_reply->Find("stats");
  ASSERT_NE(stats, nullptr);
  const Json* variants = stats->Find("variants");
  ASSERT_NE(variants, nullptr);
  EXPECT_EQ(variants->GetNumber("fp32", -1), 2.0);
  EXPECT_EQ(variants->GetNumber("int8", -1), 1.0);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace kdsel::serve
