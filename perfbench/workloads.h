// The three perfbench workloads and the set-up pieces they share.
//
// Every workload reports the same metrics (BENCHMARK.json): untraced,
// setup_s / rss_mb / latency_ms / throughput_per_s, each with the
// workload's own meaning; traced, one per-layer profile. Layers a
// workload drives itself are measured from its own work; the rest of
// the profile comes from ProbeLayers on the workload's selector.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/trainer.h"

namespace perfbench {

/// Paper Table 2 protocol: label the 16-family benchmark with all 12
/// detectors (set-up), then train ResNet with PISL+MKI+PA for seeds 1-3
/// and evaluate each on the held-out series (timed).
Outcome RunTrain(const RunOptions& opts);

/// Online selection over loopback TCP: distinct-series select requests
/// from one client thread, a fixed-rate open-loop phase, then a
/// saturating closed-loop phase.
Outcome RunServe(const RunOptions& opts);

/// A sensor fleet feeding StreamScorer::ProcessBatch in interleaved
/// bursts, with staggered periodic and drift-triggered re-selection.
Outcome RunStream(const RunOptions& opts);

/// Window length of the serve/stream selector.
inline constexpr size_t kFleetWindow = 64;
/// Classes of the serve/stream selector: the 12-detector model set.
inline constexpr size_t kFleetClasses = 12;

/// Training windows of the serve/stream selector: 64-point windows of
/// datagen series from the 16 families, labeled family mod 12.
/// Deterministic for a given seed.
kdsel::core::SelectorTrainingData FleetTrainingData(uint64_t seed, bool tiny);

/// Trains the ConvNet selector the serve and stream workloads run on
/// FleetTrainingData. Its labels are derived from the family, so set-up
/// stays a few seconds (those workloads measure inference; the train
/// workload measures selector quality against detector labels).
/// Deterministic for a given seed. With `tracer` on, records one
/// "core.epoch" span per epoch; `visits` receives the samples visited.
std::unique_ptr<kdsel::core::TrainedSelector> TrainFleetSelector(
    uint64_t seed, bool tiny, Tracer* tracer = nullptr,
    uint64_t* visits = nullptr);

/// Hook for TrainerOptions::on_epoch_end that records one "core.epoch"
/// span per epoch, from `*epoch_start` (which it advances) to now.
std::function<void(size_t)> EpochSpans(Tracer& tracer, const std::string& job,
                                       uint64_t* epoch_start);

/// Reports core.epoch_ms (median "core.epoch" span), core.epochs and
/// core.visits from the traced training of the workload's selector.
void ReportTraining(const Tracer& tracer, uint64_t visits, Outcome& out);

/// The workload's selector, as the layer probes see it.
struct ProbeTarget {
  std::string backbone;  ///< Backbone name, for a fresh forward/backward.
  const kdsel::core::TrainedSelector* selector = nullptr;
  /// Windows the selector was trained on (LSH, pruning and int8
  /// calibration inputs).
  const std::vector<std::vector<float>>* windows = nullptr;
};

/// Per-layer probes shared by every workload's traced run, on a 2-thread
/// pool after the workload's timed part:
///  - tsad: 16 seed-generated series (one per family, 512-1024 points)
///    labeled with all 12 detectors in one EvaluatePerformanceMatrix call
///    (tsad.label_ms, per series) and then one detector at a time
///    (tsad.score_ms.<model>, per series), which must reproduce the
///    full matrix; tsad.pairs / tsad.invalid_pairs count that grid;
///  - text: HashedTextEncoder over those series' metadata texts;
///  - lsh: SimHash signatures of the target's training windows;
///  - core.pruning: one PA epoch plan (r=0.8, 14 bits, 8 bins) over the
///    target's training windows, with seed-derived per-sample losses;
///  - selectors: Forward(training)/Backward of a fresh target backbone on
///    one 64-window batch, and Predict of the target selector and its
///    int8 copy on one probe series' windows.
/// Restores the pool's thread count before returning.
void ProbeLayers(const RunOptions& opts, const ProbeTarget& target,
                 Tracer& tracer, Outcome& out);

/// The traced tail shared by serve and stream, run when nothing else
/// uses the pool: trains the fleet selector once more with epoch spans
/// (ReportTraining), then runs ProbeLayers on it.
void ProbeFleet(const RunOptions& opts, Tracer& tracer, Outcome& out);

/// Deltas of the library's pool and workspace metrics over the traced
/// part of a run (common.parallel.jobs, common.parallel.job_us as the
/// mean job time, nn.workspace.pool_misses).
class LayerCounters {
 public:
  LayerCounters();
  void Report(Outcome& out) const;

 private:
  uint64_t jobs0_ = 0;
  uint64_t misses0_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
