// Workload `train`: the paper's Table 2 protocol.
//
// Set-up generates the 16-family datagen benchmark from the seed and
// labels every series with all 12 detectors through
// core::EvaluatePerformanceMatrix. The labeling runs as three shards
// (each holding every third series of every family), and set-up time
// counts the median shard three times, so one slow host episode does not
// move it. The timed part trains ResNet with PISL+MKI+PA (r=0.8, 12
// epochs, batch 64) for seeds 1-3 and evaluates each seed on the
// held-out series; it repeats as whole rounds, and the median round is
// reported:
//   latency_ms        wall time to learn one selector (round / 3 seeds),
//   throughput_per_s  training samples visited per second of training.
// The seed-mean AUC-PR of the voted detector on the held-out series
// (paper protocol) and the samples visited are exact for a seed; they
// are checked and printed with the diagnostics.

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "core/selection.h"
#include "core/trainer.h"
#include "datagen/benchmark.h"
#include "obs/trace.h"
#include "ts/dataset.h"
#include "tsad/detector.h"
#include "workloads.h"

namespace perfbench {
namespace {

using kdsel::core::TrainerOptions;
using kdsel::ts::TimeSeries;

/// Wall seconds of one 3-seed round on the reference host (4 vCPUs, 2
/// training threads); --seconds buys one round per this many seconds.
/// A constant, so the amount of work depends only on the arguments,
/// never on measured speed.
constexpr double kRoundSeconds = 14.0;
constexpr uint64_t kDetectorSeed = 42;
constexpr size_t kLabelShards = 3;
/// Pool threads for labeling (coarse (series, detector) pairs) and for
/// training and evaluation (fine-grained kernels; see RunTrain).
constexpr size_t kLabelThreads = 4;
constexpr size_t kTrainThreads = 2;

struct Labeled {
  std::vector<kdsel::ts::Dataset> datasets;
  std::vector<const TimeSeries*> flat;  ///< Dataset order.
  std::vector<std::vector<float>> perf;  ///< Row per flat series.
  std::vector<size_t> failures;          ///< Per detector.
  std::vector<double> shard_s;
};

struct Split {
  kdsel::core::SelectorTrainingData data;
  std::vector<std::string> test_names;
  std::map<std::string, std::vector<TimeSeries>> test_series;
  std::map<std::string, std::vector<std::vector<float>>> test_perf;
};

kdsel::ts::WindowOptions Windows() {
  kdsel::ts::WindowOptions wo;
  wo.length = 64;
  wo.stride = 64;
  wo.z_normalize = true;
  return wo;
}

Split SplitAndBuild(const Labeled& labeled, uint64_t seed) {
  std::map<std::string, const std::vector<float>*> by_name;
  for (size_t i = 0; i < labeled.flat.size(); ++i) {
    by_name[labeled.flat[i]->name()] = &labeled.perf[i];
  }
  Split split;
  std::vector<TimeSeries> train_series;
  std::vector<std::vector<float>> train_perf;
  for (const auto& ds : labeled.datasets) {
    auto parts = kdsel::ts::SplitSeries(ds, 0.5, seed ^ 0x5eed);
    for (const auto& s : parts.train) {
      train_series.push_back(s);
      train_perf.push_back(*by_name.at(s.name()));
    }
    if (ds.name == "Dodgers" || ds.name == "Occupancy") continue;
    split.test_names.push_back(ds.name);
    for (const auto& s : parts.test) {
      split.test_series[ds.name].push_back(s);
      split.test_perf[ds.name].push_back(*by_name.at(s.name()));
    }
  }
  auto data = kdsel::core::BuildSelectorTrainingData(train_series, train_perf,
                                                     Windows());
  if (!data.ok()) Die("training data: " + data.status().ToString());
  split.data = std::move(data).value();
  return split;
}

/// Paper protocol: per test series, majority-vote a model and look up
/// its AUC-PR; mean per dataset, then across datasets.
double EvaluateAucPr(const kdsel::core::TrainedSelector& selector,
                     const Split& split, size_t num_models) {
  double sum = 0.0;
  for (const std::string& name : split.test_names) {
    const auto& series = split.test_series.at(name);
    const auto& perf = split.test_perf.at(name);
    double ds_sum = 0.0;
    for (size_t i = 0; i < series.size(); ++i) {
      auto sel = kdsel::core::SelectSeriesModel(selector, series[i], Windows(),
                                                num_models);
      if (!sel.ok()) Die("evaluate: " + sel.status().ToString());
      ds_sum += perf[i][static_cast<size_t>(sel->model)];
    }
    sum += series.empty() ? 0.0 : ds_sum / static_cast<double>(series.size());
  }
  return split.test_names.empty()
             ? 0.0
             : sum / static_cast<double>(split.test_names.size());
}

TrainerOptions SeedOptions(uint64_t seed, size_t epochs) {
  TrainerOptions o;
  o.backbone = "ResNet";
  o.epochs = epochs;
  o.batch_size = 64;
  o.use_pisl = true;
  o.use_mki = true;
  o.pruning.mode = kdsel::core::PruningMode::kPa;
  o.pruning.prune_ratio = 0.8;
  o.pruning.lsh_bits = 14;
  o.pruning.num_bins = 8;
  o.seed = seed;
  o.pruning.seed = seed * 131 + 7;
  return o;
}

struct Round {
  std::vector<double> seed_s;         ///< TrainSelector wall time per seed.
  std::vector<uint64_t> seed_visits;  ///< Samples visited per seed.
  uint64_t visits = 0;
  uint64_t full_visits = 0;
  double auc_pr = 0.0;  ///< Seed mean; only when evaluated.
  /// The last seed's selector (the layer probes' target).
  std::unique_ptr<kdsel::core::TrainedSelector> last;
};

/// One round: train (timed) and optionally evaluate each seed.
Round RunRound(const Split& split, const std::vector<uint64_t>& seeds,
               size_t epochs, size_t num_models, bool evaluate,
               Tracer& tracer) {
  Round round;
  for (uint64_t seed : seeds) {
    TrainerOptions o = SeedOptions(seed, epochs);
    uint64_t epoch_start = 0;
    if (tracer.enabled()) {
      o.on_epoch_end =
          EpochSpans(tracer, "seed-" + std::to_string(seed), &epoch_start);
    }
    kdsel::core::TrainStats stats;
    const std::string job = "seed-" + std::to_string(seed);
    const int64_t span = tracer.Begin("core.TrainSelector", job);
    const double t0 = NowS();
    epoch_start = NowNsec();
    auto selector = kdsel::core::TrainSelector(split.data, o, &stats);
    round.seed_s.push_back(NowS() - t0);
    tracer.End(span);
    if (!selector.ok()) Die("train: " + selector.status().ToString());
    round.seed_visits.push_back(stats.samples_visited);
    round.visits += stats.samples_visited;
    round.full_visits += stats.full_dataset_visits;
    if (evaluate) {
      Tracer::Scope eval(tracer, "core.Evaluate", job);
      round.auc_pr += EvaluateAucPr(**selector, split, num_models);
    }
    round.last = std::move(selector).value();
  }
  round.auc_pr /= static_cast<double>(seeds.size());
  return round;
}

/// Labels `series` with `models`, accumulating detector failures.
std::vector<std::vector<float>> Label(
    const std::vector<std::unique_ptr<kdsel::tsad::Detector>>& models,
    const std::vector<const TimeSeries*>& series,
    std::vector<size_t>* failures) {
  std::vector<size_t> fc;
  auto matrix = kdsel::core::EvaluatePerformanceMatrix(
      models, series, kdsel::metrics::Metric::kAucPr, &fc);
  if (!matrix.ok()) Die("label: " + matrix.status().ToString());
  for (size_t j = 0; j < fc.size() && j < failures->size(); ++j) {
    (*failures)[j] += fc[j];
  }
  return std::move(matrix).value();
}

}  // namespace

Outcome RunTrain(const RunOptions& opts) {
  Outcome out;
  Tracer tracer(opts.trace);
  kdsel::datagen::BenchmarkOptions bo;
  bo.series_per_family = opts.tiny ? 3 : 6;
  bo.min_length = opts.tiny ? 256 : 512;
  bo.max_length = opts.tiny ? 320 : 1024;
  bo.seed = opts.seed;
  const size_t epochs = opts.tiny ? 2 : 12;
  const std::vector<uint64_t> seeds =
      opts.tiny ? std::vector<uint64_t>{1} : std::vector<uint64_t>{1, 2, 3};

  // ---- Set-up: datagen + labeling ---------------------------------
  Labeled labeled;
  {
    Tracer::Scope s(tracer, "datagen.GenerateBenchmark");
    auto datasets = kdsel::datagen::GenerateBenchmark(bo);
    if (!datasets.ok()) Die("datagen: " + datasets.status().ToString());
    labeled.datasets = std::move(datasets).value();
  }
  const auto models = kdsel::tsad::BuildDefaultModelSet(kDetectorSeed);
  const size_t m = models.size();
  std::vector<std::vector<size_t>> shard_rows(kLabelShards);
  for (const auto& ds : labeled.datasets) {
    for (size_t i = 0; i < ds.series.size(); ++i) {
      shard_rows[i % kLabelShards].push_back(labeled.flat.size());
      labeled.flat.push_back(&ds.series[i]);
    }
  }
  labeled.perf.resize(labeled.flat.size());
  labeled.failures.assign(m, 0);
  for (size_t k = 0; k < kLabelShards; ++k) {
    std::vector<const TimeSeries*> shard;
    for (size_t row : shard_rows[k]) shard.push_back(labeled.flat[row]);
    const int64_t span = tracer.Begin("core.EvaluatePerformanceMatrix",
                                      "shard-" + std::to_string(k));
    const double t0 = NowS();
    auto matrix = Label(models, shard, &labeled.failures);
    labeled.shard_s.push_back(NowS() - t0);
    tracer.End(span);
    for (size_t i = 0; i < shard_rows[k].size(); ++i) {
      labeled.perf[shard_rows[k][i]] = std::move(matrix[i]);
    }
  }
  Split split;
  {
    Tracer::Scope s(tracer, "core.BuildSelectorTrainingData");
    split = SplitAndBuild(labeled, opts.seed);
  }
  double label_sum = 0.0;
  for (double s : labeled.shard_s) label_sum += s;
  const double setup_s = (NowS() - opts.process_start_s) - label_sum +
                         static_cast<double>(kLabelShards) *
                             Median(labeled.shard_s);

  const uint64_t pairs = static_cast<uint64_t>(labeled.flat.size() * m);
  uint64_t invalid = 0;
  for (size_t f : labeled.failures) invalid += f;
  out.attempted = pairs;
  out.failed = invalid;
  out.Diag("label_shard_s_min", *std::min_element(labeled.shard_s.begin(),
                                                  labeled.shard_s.end()));
  out.Diag("label_shard_s_max", *std::max_element(labeled.shard_s.begin(),
                                                  labeled.shard_s.end()));
  out.Diag("training_windows", static_cast<double>(split.data.size()));

  // ---- Timed part ---------------------------------------------------
  const size_t rounds =
      opts.trace || opts.tiny
          ? 1
          : std::max<size_t>(1, static_cast<size_t>(
                                    std::lround(opts.seconds / kRoundSeconds)));
  // Training runs on 2 pool threads. Its parallel jobs are short
  // (~100 us) and wait for their slowest chunk, so on a shared guest a
  // briefly descheduled vCPU stalls the whole pool: at 4 threads train_s
  // swung 2.3x with the host's steal share. The pool is rebuilt only
  // between phases, from this (quiescent) thread.
  kdsel::ThreadPool::ResetGlobalForTesting(kTrainThreads);
  Round first;
  std::vector<double> seed_s;     ///< Every TrainSelector call of the part.
  std::vector<double> seed_rate;  ///< Its samples visited per second.
  Tracer untraced(false);
  const CpuTimes cpu0 = ReadCpuTimes();
  for (size_t r = 0; r < rounds; ++r) {
    Round round = RunRound(split, seeds, epochs, m, r == 0, untraced);
    for (size_t k = 0; k < seeds.size(); ++k) {
      seed_s.push_back(round.seed_s[k]);
      seed_rate.push_back(static_cast<double>(round.seed_visits[k]) /
                          round.seed_s[k]);
    }
    if (r == 0) {
      first = std::move(round);
    } else if (round.visits != first.visits) {
      out.Fail("train_visits differ between rounds of one run");
    }
  }
  const double timed_steal = StealPct(cpu0, ReadCpuTimes());
  const double rss_mb = PeakRssMb();
  double train_s = 0.0;  ///< The first round, summed over its seeds.
  for (double t : first.seed_s) train_s += t;
  out.Diag("timed_steal_pct", timed_steal);
  out.Diag("rounds", static_cast<double>(rounds));
  out.Diag("label_threads", static_cast<double>(kLabelThreads));
  out.Diag("train_threads", static_cast<double>(kTrainThreads));

  out.E2e("setup_s", setup_s, "s");
  out.E2e("latency_ms", 1e3 * Median(seed_s), "ms");
  out.E2e("throughput_per_s", Median(seed_rate), "1/s");
  out.Diag("train_s", train_s);
  out.Diag("train_visits", static_cast<double>(first.visits));
  out.Diag("full_visits", static_cast<double>(first.full_visits));
  out.Diag("auc_pr", first.auc_pr);

  if (!std::isfinite(first.auc_pr) || first.auc_pr <= 0.0 ||
      first.auc_pr > 1.0) {
    out.Fail("auc_pr outside (0, 1]");
  }
  if (first.visits == 0 || first.visits >= first.full_visits) {
    out.Fail("PA pruned no sample visits");
  }

  if (opts.trace) {
    // ---- Traced pass ----------------------------------------------
    const LayerCounters counters;
    const CpuTimes traced_cpu0 = ReadCpuTimes();
    kdsel::obs::StartTracing();
    Round traced = RunRound(split, seeds, epochs, m, /*evaluate=*/true, tracer);
    kdsel::obs::StopTracing();
    const double traced_steal = StealPct(traced_cpu0, ReadCpuTimes());
    if (traced.visits != first.visits) {
      out.Fail("train_visits differ between the traced and untraced runs");
    }
    if (!(traced.auc_pr == first.auc_pr)) {
      out.Fail("auc_pr differs between the traced and untraced runs");
    }
    ReportTraining(tracer, traced.visits, out);
    ProbeLayers(opts, {"ResNet", traced.last.get(), &split.data.windows},
                tracer, out);
    counters.Report(out);
    out.Layer("host.steal_pct", traced_steal, "%");
    std::vector<double> traced_rate;
    for (size_t k = 0; k < seeds.size(); ++k) {
      traced_rate.push_back(static_cast<double>(traced.seed_visits[k]) /
                            traced.seed_s[k]);
    }
    out.Layer("obs.trace_overhead_pct.latency_ms",
              100.0 * (Median(traced.seed_s) / Median(seed_s) - 1.0), "%");
    out.Layer("obs.trace_overhead_pct.throughput_per_s",
              100.0 * (1.0 - Median(traced_rate) / Median(seed_rate)), "%");
    const std::string path = opts.out_dir + "/trace-train-" +
                             std::to_string(opts.seed) + ".json";
    if (!tracer.Write(path)) out.Fail("cannot write " + path);
    out.Diag("trace_file", path);
  }
  out.E2e("rss_mb", rss_mb, "MB");
  return out;
}

}  // namespace perfbench
