// Per-layer probes shared by every workload's traced run, and the pool /
// workspace counters of the traced part. Each probe times one public
// call into one layer from the benchmark's side and records it as a span.

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "core/pruning.h"
#include "datagen/benchmark.h"
#include "lsh/simhash.h"
#include "obs/metrics.h"
#include "selectors/backbone.h"
#include "text/text_encoder.h"
#include "ts/window.h"
#include "tsad/detector.h"
#include "workloads.h"

namespace perfbench {
namespace {

using kdsel::ts::TimeSeries;

constexpr uint64_t kDetectorSeed = 42;
constexpr size_t kProbeThreads = 2;
/// Timed repetitions of the cheap probes; each reports the median.
constexpr int kReps = 9;

kdsel::ts::WindowOptions ProbeWindows() {
  kdsel::ts::WindowOptions wo;
  wo.length = 64;
  wo.stride = 64;
  wo.z_normalize = true;
  return wo;
}

/// Runs `fn` inside a span called `name` and returns its wall seconds.
template <typename Fn>
double Timed(Tracer& tracer, const std::string& name, Fn&& fn) {
  const int64_t span = tracer.Begin(name);
  const double t0 = NowS();
  fn();
  const double dt = NowS() - t0;
  tracer.End(span);
  return dt;
}

/// Median of kReps timed calls of `fn` (after one untimed warm-up), ms.
template <typename Fn>
double MedianMs(Tracer& tracer, const std::string& name, Fn&& fn) {
  fn();
  std::vector<double> s;
  for (int rep = 0; rep < kReps; ++rep) s.push_back(Timed(tracer, name, fn));
  return 1e3 * Median(s);
}

/// One series per datagen family, 512-1024 points (fewer in tiny mode).
std::vector<TimeSeries> ProbeSeries(const RunOptions& opts) {
  kdsel::datagen::BenchmarkOptions bo;
  bo.series_per_family = 1;
  bo.min_length = opts.tiny ? 256 : 512;
  bo.max_length = opts.tiny ? 320 : 1024;
  bo.seed = Mix(opts.seed, 0x960be);
  auto datasets = kdsel::datagen::GenerateBenchmark(bo);
  if (!datasets.ok()) Die("probe datagen: " + datasets.status().ToString());
  std::vector<TimeSeries> series;
  for (const auto& ds : *datasets) {
    for (const auto& s : ds.series) series.push_back(s);
  }
  return series;
}

/// Labels the probe series with all detectors at once, then one detector
/// at a time; the columns must reproduce the full matrix.
std::vector<std::vector<float>> ProbeDetectors(
    const std::vector<TimeSeries>& series, Tracer& tracer, Outcome& out) {
  std::vector<const TimeSeries*> ptrs;
  for (const auto& s : series) ptrs.push_back(&s);
  const double n = static_cast<double>(series.size());
  const auto models = kdsel::tsad::BuildDefaultModelSet(kDetectorSeed);

  std::vector<size_t> failures;
  kdsel::StatusOr<std::vector<std::vector<float>>> matrix =
      kdsel::Status::Internal("not run");
  const double all_s = Timed(tracer, "tsad.EvaluatePerformanceMatrix", [&] {
    matrix = kdsel::core::EvaluatePerformanceMatrix(
        models, ptrs, kdsel::metrics::Metric::kAucPr, &failures);
  });
  if (!matrix.ok()) Die("probe label: " + matrix.status().ToString());
  uint64_t invalid = 0;
  for (size_t f : failures) invalid += f;
  out.Layer("tsad.label_ms", 1e3 * all_s / n, "ms");
  out.Layer("tsad.pairs", n * static_cast<double>(models.size()), "count");
  out.Layer("tsad.invalid_pairs", static_cast<double>(invalid), "count");

  for (size_t j = 0; j < models.size(); ++j) {
    const std::string name = models[j]->name();
    auto one = kdsel::tsad::BuildDetector(name, kDetectorSeed);
    if (!one.ok()) Die("detector: " + one.status().ToString());
    std::vector<std::unique_ptr<kdsel::tsad::Detector>> single;
    single.push_back(std::move(one).value());
    std::vector<size_t> fc;
    kdsel::StatusOr<std::vector<std::vector<float>>> column =
        kdsel::Status::Internal("not run");
    const double s = Timed(tracer, "tsad.score." + name, [&] {
      column = kdsel::core::EvaluatePerformanceMatrix(
          single, ptrs, kdsel::metrics::Metric::kAucPr, &fc);
    });
    if (!column.ok()) Die("probe score: " + column.status().ToString());
    for (size_t i = 0; i < series.size(); ++i) {
      if ((*column)[i][0] != (*matrix)[i][j]) {
        out.Fail("per-detector labeling differs from the full matrix (" +
                 name + ")");
        break;
      }
    }
    out.Layer("tsad.score_ms." + name, 1e3 * s / n, "ms");
  }
  return std::move(matrix).value();
}

void ProbeText(const std::vector<TimeSeries>& series,
               const std::vector<std::vector<float>>& perf, Tracer& tracer,
               Outcome& out) {
  auto data =
      kdsel::core::BuildSelectorTrainingData(series, perf, ProbeWindows());
  if (!data.ok()) Die("probe texts: " + data.status().ToString());
  kdsel::text::HashedTextEncoder encoder;
  bool empty = false;
  out.Layer("text.encode_ms", MedianMs(tracer, "text.EncodeBatch", [&] {
              empty = encoder.EncodeBatch(data->texts).size() == 0;
            }),
            "ms");
  if (empty) out.Fail("text encoder returned nothing");
}

void ProbeLsh(const std::vector<std::vector<float>>& windows, uint64_t seed,
              Tracer& tracer, Outcome& out) {
  kdsel::lsh::SimHash hasher(windows[0].size(), 14, seed);
  std::vector<uint64_t> signatures(windows.size());
  out.Layer("lsh.signature_ms", MedianMs(tracer, "lsh.Signature", [&] {
              for (size_t i = 0; i < windows.size(); ++i) {
                signatures[i] = hasher.Signature(windows[i]);
              }
            }),
            "ms");
}

void ProbePruning(const std::vector<std::vector<float>>& windows,
                  uint64_t seed, Tracer& tracer, Outcome& out) {
  kdsel::core::PrunerOptions po;
  po.mode = kdsel::core::PruningMode::kPa;
  po.prune_ratio = 0.8;
  po.lsh_bits = 14;
  po.num_bins = 8;
  po.seed = Mix(seed, 0x9a);
  kdsel::core::Pruner pruner(po, windows.size(), windows);
  kdsel::Rng rng(Mix(seed, 0x1055));
  for (size_t i = 0; i < windows.size(); ++i) {
    pruner.RecordLoss(i, rng.Uniform(0.1, 2.5));
  }
  kdsel::core::EpochPlan plan;
  pruner.PlanEpoch(1, 12, &plan);
  const size_t low = plan.pruned_low;
  const size_t redundant = plan.pruned_redundant;
  out.Layer("core.pruning.plan_ms", MedianMs(tracer, "core.pruning.PlanEpoch",
                                             [&] {
                                               pruner.PlanEpoch(1, 12, &plan);
                                             }),
            "ms");
  out.Layer("core.pruning.pruned_low", static_cast<double>(low), "count");
  out.Layer("core.pruning.pruned_redundant", static_cast<double>(redundant),
            "count");
}

void ProbeSelector(const ProbeTarget& target, const TimeSeries& request,
                   uint64_t seed, Tracer& tracer, Outcome& out) {
  const auto& windows = *target.windows;
  const size_t width = windows[0].size();
  kdsel::Rng rng(seed);
  auto backbone = kdsel::selectors::BuildBackbone(target.backbone, width, rng);
  if (!backbone.ok()) Die("backbone: " + backbone.status().ToString());
  const size_t batch = std::min<size_t>(64, windows.size());
  kdsel::nn::Tensor x({batch, width});
  for (size_t i = 0; i < batch; ++i) {
    std::copy(windows[i].begin(), windows[i].end(), x.raw() + i * width);
  }
  std::vector<double> fwd, bwd;
  for (int rep = 0; rep <= kReps; ++rep) {
    kdsel::nn::Tensor z;
    const double f =
        Timed(tracer, rep == 0 ? "warmup.Forward" : "selectors.Forward",
              [&] { z = (*backbone)->Forward(x, /*training=*/true); });
    kdsel::nn::Tensor grad =
        kdsel::nn::Tensor::Full(z.shape(), 1.0f / static_cast<float>(batch));
    const double b =
        Timed(tracer, rep == 0 ? "warmup.Backward" : "selectors.Backward",
              [&] { (*backbone)->Backward(grad); });
    if (rep > 0) {
      fwd.push_back(f);
      bwd.push_back(b);
    }
  }
  out.Layer("selectors.forward_ms", 1e3 * Median(fwd), "ms");
  out.Layer("selectors.backward_ms", 1e3 * Median(bwd), "ms");

  // One request's windows through Predict, fp32 and an int8 copy
  // calibrated on (up to) 256 training windows.
  std::vector<std::vector<float>> calibration(
      windows.begin(), windows.begin() + std::min<size_t>(256, windows.size()));
  auto int8 = target.selector->QuantizeInt8(calibration);
  if (!int8.ok()) Die("quantize: " + int8.status().ToString());
  auto request_windows = kdsel::ts::ExtractWindows(request, 0, ProbeWindows());
  if (!request_windows.ok()) {
    Die("predict windows: " + request_windows.status().ToString());
  }
  std::vector<std::vector<float>> rows;
  for (auto& w : *request_windows) rows.push_back(std::move(w.values));
  bool failed = false;
  for (const char* variant : {"fp32", "int8"}) {
    const kdsel::core::TrainedSelector& selector =
        std::string(variant) == "int8" ? **int8 : *target.selector;
    out.Layer(std::string("selectors.predict_ms.") + variant,
              MedianMs(tracer, std::string("selectors.Predict.") + variant,
                       [&] { failed |= !selector.Predict(rows).ok(); }),
              "ms");
  }
  if (failed) out.Fail("Predict failed");
}

}  // namespace

void ProbeLayers(const RunOptions& opts, const ProbeTarget& target,
                 Tracer& tracer, Outcome& out) {
  Tracer::Scope probes(tracer, "perfbench.probes");
  const size_t pool_threads = kdsel::ParallelThreads();
  kdsel::ThreadPool::ResetGlobalForTesting(kProbeThreads);
  const std::vector<TimeSeries> series = ProbeSeries(opts);
  const auto perf = ProbeDetectors(series, tracer, out);
  ProbeText(series, perf, tracer, out);
  ProbeLsh(*target.windows, opts.seed, tracer, out);
  ProbePruning(*target.windows, opts.seed, tracer, out);
  ProbeSelector(target, series[0], opts.seed, tracer, out);
  kdsel::ThreadPool::ResetGlobalForTesting(pool_threads);
}

void ProbeFleet(const RunOptions& opts, Tracer& tracer, Outcome& out) {
  uint64_t visits = 0;
  std::unique_ptr<kdsel::core::TrainedSelector> selector;
  {
    Tracer::Scope s(tracer, "core.TrainSelector", "fleet");
    selector = TrainFleetSelector(opts.seed, opts.tiny, &tracer, &visits);
  }
  ReportTraining(tracer, visits, out);
  const kdsel::core::SelectorTrainingData data =
      FleetTrainingData(opts.seed, opts.tiny);
  ProbeLayers(opts, {"ConvNet", selector.get(), &data.windows}, tracer, out);
}

LayerCounters::LayerCounters() {
  auto& reg = kdsel::obs::MetricsRegistry::Global();
  reg.GetHistogram("kdsel.parallel.job_us").Reset();
  jobs0_ = reg.GetCounter("kdsel.parallel.jobs").Value();
  misses0_ = reg.GetCounter("kdsel.nn.workspace.pool_misses").Value();
}

void LayerCounters::Report(Outcome& out) const {
  auto& reg = kdsel::obs::MetricsRegistry::Global();
  out.Layer("common.parallel.jobs",
            static_cast<double>(reg.GetCounter("kdsel.parallel.jobs").Value() -
                                jobs0_),
            "count");
  // The mean, not a percentile: the histogram's percentiles are bucket
  // edges, which would read the same from run to run.
  out.Layer("common.parallel.job_us",
            reg.GetHistogram("kdsel.parallel.job_us").Summarize().mean, "us");
  out.Layer("nn.workspace.pool_misses",
            static_cast<double>(
                reg.GetCounter("kdsel.nn.workspace.pool_misses").Value() -
                misses0_),
            "count");
}

}  // namespace perfbench
