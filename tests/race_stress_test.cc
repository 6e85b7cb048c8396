// Race-stress tests for the serving layer, built to run under
// ThreadSanitizer (-DKDSEL_SANITIZE=thread). Each test hammers one
// cross-thread seam hard enough that TSan sees every pairing at least
// once, while staying small enough for CI:
//
//   * SelectorRegistry: Register (hot reload) vs Get/GetOrLoad vs Evict
//     vs ResidentNames from many threads at once.
//   * ServerStats: ToJsonString/Summarize export racing live Record*
//     calls on the inference path.
//   * InferenceServer lifecycle: concurrent Stop() calls (client thread
//     vs destructor path) with requests still in flight, and submitters
//     racing Stop() for the submission queue the workers take from.
//   * TrainedSelector: Logits/Predict on one shared selector from many
//     threads, every backbone in fp32 and int8.
//   * obs::Histogram: Reset() racing Record() and Summarize(), the
//     pairing behind live `kdsel serve` stats scrapes.
//   * text::DefaultTextEncoder: two MKI TrainSelector calls building and
//     reading the one process-wide frozen encoder at the same time.
//
// Iteration counts are deliberately modest: under TSan every memory
// access is instrumented (~5-15x slowdown), and a data race is caught
// on the first racy pairing, not the thousandth.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "core/trainer.h"
#include "nn/layers.h"
#include "obs/metrics.h"
#include "selectors/backbone.h"
#include "serve/json.h"
#include "serve/registry.h"
#include "serve/server.h"
#include "serve/stats.h"
#include "serve_test_util.h"

namespace kdsel::serve {
namespace {

/// Trains a small ConvNet selector on separable synthetic windows
/// (same recipe as serve_test, kept tiny so TSan runs stay fast).
std::unique_ptr<core::TrainedSelector> TrainTinySelector(uint64_t seed = 1) {
  core::SelectorTrainingData data;
  data.num_classes = 2;
  Rng rng(seed);
  for (int i = 0; i < 60; ++i) {
    const int c = i % 2;
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

/// Flattens every parameter and state tensor of a selector, in
/// serialization order.
std::vector<float> SelectorTensors(core::TrainedSelector& selector) {
  std::vector<float> flat;
  auto append = [&](const nn::Tensor& t) {
    flat.insert(flat.end(), t.raw(), t.raw() + t.size());
  };
  for (nn::Parameter* p : selector.backbone().Parameters()) append(p->value);
  for (nn::Tensor* t : selector.backbone().StateTensors()) append(*t);
  for (nn::Parameter* p : selector.classifier().Parameters()) append(p->value);
  return flat;
}

ts::TimeSeries MakeSineSeries(size_t length, double frequency) {
  std::vector<float> values(length);
  for (size_t i = 0; i < length; ++i) {
    values[i] =
        static_cast<float>(std::sin(frequency * static_cast<double>(i)));
  }
  return ts::TimeSeries("stress", std::move(values));
}

// Register / Get / GetOrLoad / Evict / ResidentNames all racing on one
// registry. Correctness bar: no TSan report, snapshots stay usable
// (non-null selector, monotone versions per name), and the registry
// survives eviction racing a re-register.
TEST(RaceStressTest, RegistryReloadEvictAndReadRace) {
  SelectorRegistry registry(core::SelectorManager("/tmp/kdsel_race_none"));
  auto seedling = TrainTinySelector();
  ASSERT_TRUE(registry.Register("hot", seedling->Clone().value()).ok());
  ASSERT_TRUE(registry.Register("cold", seedling->Clone().value()).ok());

  constexpr int kIterations = 40;
  std::atomic<int> errors{0};
  // Raw threads on purpose: the stress tests need uncoordinated
  // concurrency the shared pool deliberately does not provide.
  std::vector<std::thread> threads;  // kdsel-lint: allow(raw-thread)

  // Two reloaders: keep re-registering fresh clones of "hot".
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) {
        auto clone = seedling->Clone();
        if (!clone.ok() ||
            !registry.Register("hot", std::move(clone).value()).ok()) {
          errors.fetch_add(1);
        }
      }
    });
  }
  // Evictor: bounces "cold" in and out of residency.
  threads.emplace_back([&] {
    for (int i = 0; i < kIterations; ++i) {
      registry.Evict("cold");
      auto clone = seedling->Clone();
      if (!clone.ok() ||
          !registry.Register("cold", std::move(clone).value()).ok()) {
        errors.fetch_add(1);
      }
    }
  });
  // Readers: snapshots must always be intact, versions monotone.
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([&] {
      uint64_t last_version = 0;
      for (int i = 0; i < kIterations * 2; ++i) {
        auto snapshot = registry.Get("hot");
        if (!snapshot.ok() || snapshot->selector == nullptr ||
            snapshot->version < last_version) {
          errors.fetch_add(1);
          continue;
        }
        last_version = snapshot->version;
        if (snapshot->selector->num_classes() != 2) errors.fetch_add(1);
        registry.ResidentNames();
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(errors.load(), 0);
  // "cold" finished each evictor iteration re-registered.
  EXPECT_TRUE(registry.Get("cold").ok());
}

// Clients submit inference while one thread hot-reloads the selector and
// another continuously exports ServerStats as JSON. This is the exact
// production pairing: metrics scrapes must never tear or race against
// Record* calls on the hot path.
TEST(RaceStressTest, StatsExportRacesInferenceAndReload) {
  SelectorRegistry registry(core::SelectorManager("/tmp/kdsel_race_none"));
  auto trained = TrainTinySelector();
  ASSERT_TRUE(registry.Register("tiny", std::move(trained)).ok());

  ServerOptions opts;
  opts.num_workers = 3;
  opts.max_batch = 4;
  InferenceServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  const ts::TimeSeries series = MakeSineSeries(64, 0.4);
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  // Stats scraper: full JSON export plus the scalar accessors.
  std::thread scraper([&] {  // kdsel-lint: allow(raw-thread)
    while (!done.load(std::memory_order_acquire)) {
      auto parsed = Json::Parse(server.stats().ToJsonString());
      if (!parsed.ok()) failures.fetch_add(1);
      server.stats().MeanBatchSize();
      server.stats().completed();
      server.stats()
          .endpoint(ServerStats::Endpoint::kSelect)
          .total.Summarize();
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  });
  // Reloader: swaps in identical weights, so responses stay stable.
  std::thread reloader([&] {  // kdsel-lint: allow(raw-thread)
    while (!done.load(std::memory_order_acquire)) {
      auto snapshot = registry.Get("tiny");
      if (!snapshot.ok()) {
        failures.fetch_add(1);
        break;
      }
      auto clone = snapshot->selector->Clone();
      if (!clone.ok() ||
          !registry.Register("tiny", std::move(clone).value()).ok()) {
        failures.fetch_add(1);
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 10;
  std::vector<std::thread> clients;  // kdsel-lint: allow(raw-thread)
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      for (size_t r = 0; r < kPerClient; ++r) {
        SelectRequest request;
        request.selector = "tiny";
        request.series = series;
        request.run_detection = false;
        auto response = serve_test::RunRequest(server, std::move(request));
        if (!response.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  done.store(true, std::memory_order_release);
  scraper.join();
  reloader.join();
  server.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().completed(), kClients * kPerClient);
  EXPECT_EQ(server.stats().failed(), 0u);
}

// Fp32 and int8 variants of one selector serve side by side (registry
// entries "tiny" and "tiny.int8") while a reloader keeps swapping fresh
// int8 clones in. Clones of a quantized selector re-quantize from the
// stored scales, so responses must stay stable across swaps, and the
// per-variant stats counters must attribute every request.
TEST(RaceStressTest, Int8VariantServesAndReloadsConcurrentlyWithFp32) {
  SelectorRegistry registry(core::SelectorManager("/tmp/kdsel_race_none"));
  auto trained = TrainTinySelector();
  std::vector<std::vector<float>> calib;
  for (int i = 0; i < 8; ++i) {
    std::vector<float> w(16);
    for (size_t t = 0; t < 16; ++t) {
      w[t] = static_cast<float>(
          std::sin((0.3 + 0.9 * (i % 2)) * static_cast<double>(t)));
    }
    calib.push_back(std::move(w));
  }
  auto quantized = trained->QuantizeInt8(calib);
  ASSERT_TRUE(quantized.ok()) << quantized.status();
  ASSERT_TRUE((*quantized)->IsInt8());
  ASSERT_TRUE(registry.Register("tiny", std::move(trained)).ok());
  ASSERT_TRUE(registry.Register("tiny.int8", std::move(*quantized)).ok());

  ServerOptions opts;
  opts.num_workers = 3;
  opts.max_batch = 4;
  InferenceServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  const ts::TimeSeries series = MakeSineSeries(64, 0.4);
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  // Reloader: hot-swaps the int8 entry while both variants serve.
  std::thread reloader([&] {  // kdsel-lint: allow(raw-thread)
    while (!done.load(std::memory_order_acquire)) {
      auto snapshot = registry.Get("tiny.int8");
      if (!snapshot.ok()) {
        failures.fetch_add(1);
        break;
      }
      auto clone = snapshot->selector->Clone();
      if (!clone.ok() || !(*clone)->IsInt8() ||
          !registry.Register("tiny.int8", std::move(clone).value()).ok()) {
        failures.fetch_add(1);
        break;
      }
      std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
  });

  constexpr size_t kClients = 4;
  constexpr size_t kPerClient = 10;
  std::vector<std::thread> clients;  // kdsel-lint: allow(raw-thread)
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (size_t r = 0; r < kPerClient; ++r) {
        SelectRequest request;
        // Even clients hit fp32, odd clients the int8 variant.
        request.selector = (c % 2 == 0) ? "tiny" : "tiny.int8";
        request.series = series;
        request.run_detection = false;
        auto response = serve_test::RunRequest(server, std::move(request));
        if (!response.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& client : clients) client.join();
  done.store(true, std::memory_order_release);
  reloader.join();
  server.Stop();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().completed(), kClients * kPerClient);
  EXPECT_EQ(server.stats().fp32_requests(), kClients / 2 * kPerClient);
  EXPECT_EQ(server.stats().int8_requests(), kClients / 2 * kPerClient);
}

// Stop() must be idempotent under concurrency: a client thread stopping
// the server races the destructor's Stop(). Before Stop() took the
// lifecycle lock, both callers could pass the started-and-not-stopped
// check and double-join the worker threads.
TEST(RaceStressTest, ConcurrentStopIsIdempotent) {
  SelectorRegistry registry(core::SelectorManager("/tmp/kdsel_race_none"));
  ASSERT_TRUE(registry.Register("tiny", TrainTinySelector()).ok());

  for (int round = 0; round < 3; ++round) {
    ServerOptions opts;
    opts.num_workers = 2;
    opts.max_batch = 2;
    InferenceServer server(&registry, opts);
    ASSERT_TRUE(server.Start().ok());

    const ts::TimeSeries series = MakeSineSeries(48, 0.3);
    std::vector<std::future<StatusOr<SelectResponse>>> futures;
    for (int i = 0; i < 6; ++i) {
      SelectRequest request;
      request.selector = "tiny";
      request.series = series;
      request.run_detection = false;
      futures.push_back(serve_test::SubmitOne(server, std::move(request)));
    }

    std::vector<std::thread> stoppers;  // kdsel-lint: allow(raw-thread)
    for (int t = 0; t < 3; ++t) {
      stoppers.emplace_back([&server] { server.Stop(); });
    }
    for (auto& stopper : stoppers) stopper.join();

    // Stop drains: every accepted request still resolves successfully.
    for (auto& future : futures) {
      auto response = future.get();
      EXPECT_TRUE(response.ok()) << response.status();
    }
    // Double-stop from the same thread stays a no-op; the destructor
    // stops again when `server` leaves scope.
    server.Stop();
  }
}

// Submitters race Stop(): four threads keep handing 1-5-item batches
// over two selectors to the server while another thread stops it. Every
// `done` runs exactly once; accepted requests end OK and the rest are
// refused with FailedPrecondition (stopped) or ResourceExhausted (queue
// full). Stop() drains: no accepted request completes after it returns,
// though refusals still complete later, inside a late SubmitBatch.
TEST(RaceStressTest, SubmittersRaceStop) {
  SelectorRegistry registry(core::SelectorManager("/tmp/kdsel_race_none"));
  auto trained = TrainTinySelector();
  auto other = trained->Clone();
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(registry.Register("tiny", std::move(trained)).ok());
  ASSERT_TRUE(registry.Register("other", std::move(other).value()).ok());

  ServerOptions opts;
  opts.num_workers = 2;
  opts.max_batch = 4;
  opts.queue_capacity = 16;
  InferenceServer server(&registry, opts);
  ASSERT_TRUE(server.Start().ok());

  // Sixteen windows per request keep the workers behind the submitters,
  // so the queue is full when the stop lands.
  const ts::TimeSeries series = MakeSineSeries(256, 0.4);
  constexpr size_t kSubmitters = 4;
  std::atomic<bool> stopped{false};
  std::atomic<uint64_t> ok{0};
  std::atomic<int> refused{0}, unexpected{0};
  // One call counter per item; a deque never moves its elements.
  std::vector<std::deque<std::atomic<int>>> calls(kSubmitters);
  std::vector<std::thread> submitters;  // kdsel-lint: allow(raw-thread)
  for (size_t t = 0; t < kSubmitters; ++t) {
    submitters.emplace_back([&, t] {
      Rng rng(t + 1);
      // Keep submitting until the stop is seen, then once more.
      for (bool last = false; !last;) {
        last = stopped.load(std::memory_order_acquire);
        std::vector<InferenceServer::AsyncItem> items(
            static_cast<size_t>(rng.Int(1, 5)));
        for (InferenceServer::AsyncItem& item : items) {
          std::atomic<int>* count = &calls[t].emplace_back(0);
          item.request.selector = rng.Bernoulli(0.5) ? "tiny" : "other";
          item.request.series = series;
          item.request.run_detection = false;
          item.done = [&, count](StatusOr<SelectResponse> reply) {
            count->fetch_add(1);
            const StatusCode code = reply.status().code();
            if (code == StatusCode::kOk) {
              ok.fetch_add(1);
            } else if (code == StatusCode::kFailedPrecondition ||
                       code == StatusCode::kResourceExhausted) {
              refused.fetch_add(1);
            } else {
              unexpected.fetch_add(1);
            }
          };
        }
        server.SubmitBatch(std::move(items));
      }
    });
  }
  uint64_t ok_at_stop = 0;
  std::thread stopper([&] {  // kdsel-lint: allow(raw-thread)
    while (server.stats().rejected() == 0) std::this_thread::yield();
    server.Stop();
    ok_at_stop = ok.load();
    stopped.store(true, std::memory_order_release);
  });
  stopper.join();
  for (auto& submitter : submitters) submitter.join();

  size_t items = 0, not_once = 0;
  for (const auto& counts : calls) {
    for (const std::atomic<int>& count : counts) {
      ++items;
      if (count.load() != 1) ++not_once;
    }
  }
  EXPECT_EQ(not_once, 0u);
  EXPECT_EQ(unexpected.load(), 0);
  EXPECT_EQ(ok.load() + static_cast<uint64_t>(refused.load()), items);
  EXPECT_EQ(ok.load(), ok_at_stop);
  EXPECT_EQ(ok.load(), server.stats().submitted());
  EXPECT_EQ(server.stats().submitted(),
            server.stats().completed() + server.stats().failed());
  EXPECT_GT(refused.load(), 0);  // At least every final, post-stop batch.
}

// Inference forwards write no module state, so threads share one
// selector: concurrent Logits/Predict calls on a single TrainedSelector,
// for every backbone in fp32 and int8, must each equal a serial run bit
// for bit. Weights are untrained (random init), which is all bitwise
// equality needs. Each of the pool's executors runs one chunk; forwards
// inside a chunk run their own ParallelFor inline.
TEST(RaceStressTest, SharedSelectorInfersConcurrentlyBitForBit) {
  constexpr size_t kLength = 16, kClasses = 3, kThreads = 4, kRounds = 20;
  ThreadPool pool(kThreads);
  Rng rng(5);
  std::vector<std::vector<float>> windows(8, std::vector<float>(kLength));
  for (auto& window : windows) {
    for (float& v : window) v = static_cast<float>(rng.Normal());
  }
  for (const std::string& name : selectors::BackboneNames()) {
    auto backbone = selectors::BuildBackbone(name, kLength, rng);
    ASSERT_TRUE(backbone.ok()) << backbone.status();
    auto classifier =
        std::make_unique<nn::Linear>((*backbone)->feature_dim(), kClasses, rng);
    auto fp32 = std::make_unique<core::TrainedSelector>(
        std::move(backbone).value(), std::move(classifier), kClasses, name);
    auto int8 = fp32->QuantizeInt8(windows);
    ASSERT_TRUE(int8.ok()) << int8.status();

    for (const core::TrainedSelector* selector : {fp32.get(), int8->get()}) {
      auto logits = selector->Logits(windows);
      auto predicted = selector->Predict(windows);
      ASSERT_TRUE(logits.ok() && predicted.ok());
      std::atomic<int> mismatches{0};
      pool.For(kThreads, 1, [&](size_t, size_t) {
        for (size_t r = 0; r < kRounds; ++r) {
          auto l = selector->Logits(windows);
          auto p = selector->Predict(windows);
          if (!l.ok() || !p.ok() || *p != *predicted ||
              l->shape() != logits->shape() ||
              std::memcmp(l->raw(), logits->raw(),
                          logits->size() * sizeof(float)) != 0) {
            mismatches.fetch_add(1);
          }
        }
      });
      EXPECT_EQ(mismatches.load(), 0)
          << name << (selector->IsInt8() ? " int8" : " fp32");
    }
  }
}

// Two MKI trainings at once share the process-wide frozen text encoder;
// neither has built it yet, so they also race its first use. Each
// selector must equal a serial run of the same seed bit for bit. Each
// pool executor runs one training; its ParallelFor calls run inline.
TEST(RaceStressTest, ConcurrentMkiTrainingSharesEncoderBitForBit) {
  core::SelectorTrainingData data;
  data.num_classes = 2;
  const char* kTexts[2] = {"slow periodic wave with few anomalies",
                           "fast oscillation with spiky anomalies"};
  Rng rng(9);
  for (int i = 0; i < 48; ++i) {
    const int c = i % 2;
    std::vector<float> w(16);
    for (size_t t = 0; t < 16; ++t) {
      w[t] = std::sin((0.3 + 0.9 * c) * static_cast<double>(t)) +
             0.05f * static_cast<float>(rng.Normal());
    }
    data.windows.push_back(std::move(w));
    data.labels.push_back(c);
    data.texts.push_back(kTexts[c]);
  }
  auto options = [](uint64_t seed) {
    core::TrainerOptions opts;
    opts.backbone = "ConvNet";
    opts.epochs = 2;
    opts.batch_size = 16;
    opts.use_mki = true;
    opts.mki_hidden = 32;
    opts.mki_shared_dim = 8;
    opts.seed = seed;
    return opts;
  };

  constexpr size_t kRuns = 2;
  std::vector<std::vector<float>> concurrent(kRuns);
  std::atomic<int> failures{0};
  ThreadPool pool(kRuns);
  pool.For(kRuns, 1, [&](size_t begin, size_t end) {
    for (size_t r = begin; r < end; ++r) {
      auto selector = core::TrainSelector(data, options(r + 1), nullptr);
      if (!selector.ok()) {
        failures.fetch_add(1);
        continue;
      }
      concurrent[r] = SelectorTensors(**selector);
    }
  });
  ASSERT_EQ(failures.load(), 0);

  for (size_t r = 0; r < kRuns; ++r) {
    auto serial = core::TrainSelector(data, options(r + 1), nullptr);
    ASSERT_TRUE(serial.ok()) << serial.status();
    const std::vector<float> want = SelectorTensors(**serial);
    ASSERT_EQ(concurrent[r].size(), want.size()) << r;
    EXPECT_EQ(std::memcmp(concurrent[r].data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << "seed " << r + 1;
  }
}

// Histogram Reset() racing Record() and Summarize(). Contract under
// test (see obs/metrics.h): every summary describes exactly the records
// it counts, so `count >= samples` always holds, min <= max, and the
// mean lies within the recorded value range. Recorders feed a fixed
// value so any torn read shows up as an out-of-range min/max/mean.
TEST(RaceStressTest, HistogramResetRacesRecordAndSummarize) {
  obs::Histogram histogram;
  constexpr double kValue = 42.0;
  constexpr int kIterations = 2000;
  std::atomic<bool> done{false};
  std::atomic<int> violations{0};

  std::vector<std::thread> threads;  // kdsel-lint: allow(raw-thread)
  // Recorders: hammer a constant value.
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIterations; ++i) histogram.Record(kValue);
    });
  }
  // Resetter: wipes mid-flight.
  threads.emplace_back([&] {
    for (int i = 0; i < kIterations / 10; ++i) {
      histogram.Reset();
      std::this_thread::yield();
    }
  });
  // Summarizer: every snapshot must be internally coherent.
  threads.emplace_back([&] {
    while (!done.load(std::memory_order_acquire)) {
      const obs::Histogram::Summary s = histogram.Summarize();
      if (s.count < s.samples) violations.fetch_add(1);
      if (s.samples > 0) {
        if (s.min > s.max) violations.fetch_add(1);
        if (s.min != kValue || s.max != kValue) violations.fetch_add(1);
        if (s.mean < s.min || s.mean > s.max) violations.fetch_add(1);
      }
    }
  });

  for (size_t t = 0; t + 1 < threads.size(); ++t) threads[t].join();
  done.store(true, std::memory_order_release);
  threads.back().join();
  EXPECT_EQ(violations.load(), 0);

  // Quiescent: one final reset-and-record round is exact.
  histogram.Reset();
  histogram.Record(kValue);
  const obs::Histogram::Summary s = histogram.Summarize();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.samples, 1u);
  EXPECT_EQ(s.min, kValue);
  EXPECT_EQ(s.max, kValue);
}

}  // namespace
}  // namespace kdsel::serve
