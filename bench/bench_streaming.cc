// Closed-loop throughput driver for the streaming/online scoring layer.
//
// Trains a small ConvNet selector on synthetic data, registers it in a
// SelectorRegistry, then pushes multi-series point streams through a
// StreamScorer at 1/2/4 pool threads and reports ingest throughput
// (points/sec) plus re-score latency percentiles from the
// kdsel.stream.rescore_us histogram.
//
// Three workloads per thread count:
//   ingest_w256 / ingest_w1024  pure incremental ingest (re-scoring
//                               effectively disabled). Comparing the two
//                               window sizes demonstrates the O(1)
//                               amortized per-point cost: ns/point must
//                               not scale with the ring capacity.
//   rescore                     ingest plus periodic re-selection every
//                               `--rescore` points per series.
//   drift                       a mid-stream regime switch on every
//                               series, with drift-triggered
//                               re-selection enabled.
//
// `--report` writes BENCH_streaming.json and METRICS_streaming.json
// (same $KDSEL_BENCH_REPORT_DIR convention as bench_micro) so CI can
// diff throughput and schema-check the kdsel.stream.* instrumentation.
//
// Flags:
//   --points N   points per series per workload (default 20000)
//   --series K   concurrent series (default 8)
//   --rescore R  periodic re-score interval (default 512)
//   --report     write BENCH_/METRICS_streaming.json

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_report.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stringutil.h"
#include "core/trainer.h"
#include "datagen/families.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "serve/registry.h"
#include "stream/scorer.h"

namespace kdsel {
namespace {

constexpr size_t kWindow = 32;  ///< Selector input length.

std::unique_ptr<core::TrainedSelector> TrainBenchSelector() {
  core::SelectorTrainingData data;
  data.num_classes = 4;
  Rng rng(7);
  for (int i = 0; i < 160; ++i) {
    const int c = i % 4;
    std::vector<float> w(kWindow);
    for (size_t t = 0; t < kWindow; ++t) {
      w[t] = std::sin((0.15 + 0.35 * c) * static_cast<double>(t)) +
             0.05f * static_cast<float>(rng.Normal());
    }
    data.windows.push_back(std::move(w));
    data.labels.push_back(c);
  }
  core::TrainerOptions opts;
  opts.backbone = "ConvNet";
  opts.epochs = 2;
  opts.seed = 7;
  auto selector = core::TrainSelector(data, opts, nullptr);
  KDSEL_CHECK(selector.ok());
  return std::move(selector).value();
}

/// One synthetic stream per series, round-robin over the 16 families.
/// When `switch_family` is set, the second half of every stream comes
/// from a different family so the drift monitor has a real regime
/// change to catch.
std::vector<std::vector<float>> MakeStreams(size_t count, size_t points,
                                            bool switch_family) {
  const auto& families = datagen::AllFamilies();
  std::vector<std::vector<float>> streams;
  streams.reserve(count);
  Rng rng(99);
  for (size_t i = 0; i < count; ++i) {
    const auto family = families[i % families.size()];
    if (!switch_family) {
      streams.push_back(datagen::GenerateBaseSignal(family, points, rng));
      continue;
    }
    const auto other = families[(i + families.size() / 2) % families.size()];
    auto head = datagen::GenerateBaseSignal(family, points / 2, rng);
    auto tail =
        datagen::GenerateBaseSignal(other, points - points / 2, rng);
    for (float& v : tail) v += 6.0f;  // Level shift on top of the shape.
    head.insert(head.end(), tail.begin(), tail.end());
    streams.push_back(std::move(head));
  }
  return streams;
}

struct WorkloadResult {
  double seconds = 0.0;
  size_t points = 0;
  size_t selections = 0;
  size_t drift_events = 0;
  obs::Histogram::Summary rescore_us;
};

/// Feeds `streams` through a fresh StreamScorer in interleaved bursts of
/// `burst` points per series, mimicking a multiplexed ingestion socket.
WorkloadResult RunWorkload(serve::SelectorRegistry& registry,
                           const stream::StreamOptions& options,
                           const std::vector<std::vector<float>>& streams,
                           size_t burst) {
  stream::StreamScorer scorer(&registry, options);
  auto& rescore_us = obs::MetricsRegistry::Global().GetHistogram(
      "kdsel.stream.rescore_us");
  rescore_us.Reset();

  std::vector<stream::PointEvent> batch;
  const size_t points = streams.empty() ? 0 : streams[0].size();
  batch.reserve(streams.size() * burst);

  WorkloadResult result;
  const auto t0 = obs::NowNs();
  for (size_t offset = 0; offset < points; offset += burst) {
    batch.clear();
    const size_t end = std::min(points, offset + burst);
    for (size_t s = 0; s < streams.size(); ++s) {
      for (size_t t = offset; t < end; ++t) {
        batch.push_back(
            stream::PointEvent{"series_" + std::to_string(s), streams[s][t]});
      }
    }
    auto events = scorer.ProcessBatch(batch);
    KDSEL_CHECK(events.ok());
    for (const stream::StreamEvent& event : *events) {
      if (event.kind == stream::StreamEvent::Kind::kDrift) {
        ++result.drift_events;
      } else {
        ++result.selections;
      }
    }
  }
  result.seconds =
      static_cast<double>(obs::NowNs() - t0) / 1e9;
  result.points = scorer.points_ingested();
  result.rescore_us = rescore_us.Summarize();
  return result;
}

bench::BenchEntry ToEntry(const std::string& name, size_t threads,
                          const WorkloadResult& r) {
  bench::BenchEntry entry;
  entry.name = name;
  entry.threads = threads;
  entry.wall_seconds = r.seconds;
  entry.items = static_cast<double>(r.points);
  entry.items_unit = "points";
  entry.metrics["ns_per_point"] =
      r.points == 0 ? 0.0 : r.seconds * 1e9 / static_cast<double>(r.points);
  entry.metrics["selections"] = static_cast<double>(r.selections);
  entry.metrics["drift_events"] = static_cast<double>(r.drift_events);
  entry.metrics["rescore_count"] = static_cast<double>(r.rescore_us.count);
  entry.metrics["rescore_p50_us"] = r.rescore_us.p50;
  entry.metrics["rescore_p95_us"] = r.rescore_us.p95;
  return entry;
}

int WriteMetricsSnapshot(const char* name) {
  const char* dir = std::getenv("KDSEL_BENCH_REPORT_DIR");
  std::string path = (dir != nullptr && dir[0] != '\0') ? dir : ".";
  path += std::string("/METRICS_") + name + ".json";
  std::ofstream out(path, std::ios::trunc);
  out << obs::MetricsRegistry::Global().SnapshotJson() << "\n";
  out.flush();
  if (!out.good()) {
    std::fprintf(stderr, "[bench_streaming] metrics snapshot write failed: %s\n",
                 path.c_str());
    return 1;
  }
  std::fprintf(stderr, "[bench_streaming] wrote %s\n", path.c_str());
  return 0;
}

int Main(int argc, char** argv) {
  size_t points = 20000;
  size_t num_series = 8;
  size_t rescore_interval = 512;
  bool report = false;
  const auto parse_flag = [](const char* flag, const char* text) {
    auto value = ParseSize(text);
    if (!value.ok()) {
      std::fprintf(stderr, "invalid integer for %s: '%s'\n", flag, text);
      std::exit(2);
    }
    return *value;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--points") == 0 && i + 1 < argc) {
      points = parse_flag("--points", argv[++i]);
    } else if (std::strcmp(argv[i], "--series") == 0 && i + 1 < argc) {
      num_series = parse_flag("--series", argv[++i]);
    } else if (std::strcmp(argv[i], "--rescore") == 0 && i + 1 < argc) {
      rescore_interval = parse_flag("--rescore", argv[++i]);
    } else if (std::strcmp(argv[i], "--report") == 0) {
      report = true;
    } else {
      std::fprintf(stderr,
                   "usage: bench_streaming [--points N] [--series K] "
                   "[--rescore R] [--report]\n");
      return 2;
    }
  }

  serve::SelectorRegistry registry{
      core::SelectorManager("/tmp/kdsel_bench_streaming")};
  auto bench_ok = registry.Register("bench", TrainBenchSelector());
  KDSEL_CHECK(bench_ok.ok());

  const auto stationary = MakeStreams(num_series, points, false);
  const auto switching = MakeStreams(num_series, points, true);

  std::printf("bench_streaming: %zu series x %zu points, rescore every %zu, "
              "hardware_concurrency=%zu\n\n",
              num_series, points, rescore_interval, ParallelThreads());
  std::printf("%-14s %7s %12s %10s %10s %8s %7s\n", "workload", "threads",
              "points/s", "ns/point", "rescores", "p95us", "drift");

  bench::BenchReport bench_report("streaming");
  for (const size_t threads : {1u, 2u, 4u}) {
    ThreadPool::ResetGlobalForTesting(threads);

    stream::StreamOptions base;
    base.selector = "bench";
    base.window = 256;
    base.drift.threshold = 1e18;  // Ingest workloads: never trip drift.

    struct Spec {
      const char* name;
      stream::StreamOptions options;
      const std::vector<std::vector<float>>* streams;
    };
    std::vector<Spec> specs;
    {
      Spec ingest{"ingest_w256", base, &stationary};
      // Effectively disable periodic re-scoring: only the initial
      // selection per series runs, leaving pure ingest cost.
      ingest.options.rescore_interval = points * 2;
      specs.push_back(ingest);

      Spec wide = ingest;
      wide.name = "ingest_w1024";
      wide.options.window = 1024;
      specs.push_back(wide);

      Spec rescore{"rescore", base, &stationary};
      rescore.options.rescore_interval = rescore_interval;
      specs.push_back(rescore);

      Spec drift{"drift", base, &switching};
      drift.options.rescore_interval = points * 2;
      drift.options.drift.threshold = 16.0;
      drift.options.drift.patience = 2;
      specs.push_back(drift);
    }

    for (const Spec& spec : specs) {
      // Warm-up pass primes the pool threads' workspace buffers and the
      // metric registrations (each run builds a fresh scorer).
      (void)RunWorkload(registry, spec.options,
                        MakeStreams(num_series, 2048, false), 64);
      const WorkloadResult r =
          RunWorkload(registry, spec.options, *spec.streams, 64);
      std::printf("%-14s %7zu %12.0f %10.1f %10zu %8.1f %7zu\n", spec.name,
                  threads,
                  static_cast<double>(r.points) / r.seconds,
                  r.seconds * 1e9 / static_cast<double>(r.points),
                  static_cast<size_t>(r.rescore_us.count), r.rescore_us.p95,
                  r.drift_events);
      bench_report.Add(ToEntry(spec.name, threads, r));
    }
  }

  bench_report.ComputeSpeedups();
  if (!report) return 0;
  auto path = bench_report.Write();
  if (!path.ok()) {
    std::fprintf(stderr, "[bench_streaming] report write failed: %s\n",
                 path.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "[bench_streaming] wrote %s\n", path->c_str());
  return WriteMetricsSnapshot("streaming");
}

}  // namespace
}  // namespace kdsel

int main(int argc, char** argv) { return kdsel::Main(argc, argv); }
