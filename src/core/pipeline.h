#ifndef KDSEL_CORE_PIPELINE_H_
#define KDSEL_CORE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/selection.h"
#include "core/trainer.h"
#include "metrics/range_metrics.h"
#include "ts/window.h"
#include "tsad/detector.h"

namespace kdsel::core {

/// Per-series label-generation result: the detector performance vector
/// P(M_j(T)) plus windows and metadata text derived from the series.
struct LabeledSeries {
  std::vector<float> performance;  ///< AUC-PR of each model on the series.
  int best_model = 0;
  std::string metadata_text;
  std::vector<std::vector<float>> windows;
};

/// Evaluates every detector on every series, fanning the (series,
/// detector) pairs across the shared thread pool; each pair writes a
/// disjoint slot so the matrix is identical at any KDSEL_THREADS
/// setting. Returns one performance row per series (row s = metric of
/// each model on *series[s]).
///
/// Failure semantics: a detector returning InvalidArgument for a series
/// (e.g. too short for its window) contributes the worst-case 0.0 and
/// bumps that detector's slot in `failure_counts` (sized to
/// models.size() when non-null). Any other error — IoError, Internal —
/// is a real fault and propagates, failing the whole build.
StatusOr<std::vector<std::vector<float>>> EvaluatePerformanceMatrix(
    const std::vector<std::unique_ptr<tsad::Detector>>& models,
    const std::vector<const ts::TimeSeries*>& series,
    metrics::Metric metric = metrics::Metric::kAucPr,
    std::vector<size_t>* failure_counts = nullptr);

/// Runs every detector in `models` on `series` and scores it with the
/// chosen metric (Definition 2.1's P; defaults to the paper's AUC-PR)
/// against the series' ground-truth labels — the benchmark's
/// label-generation step. Requires a labeled series. Single-series
/// wrapper around EvaluatePerformanceMatrix with the same failure
/// semantics.
StatusOr<std::vector<float>> EvaluateDetectorsOnSeries(
    const std::vector<std::unique_ptr<tsad::Detector>>& models,
    const ts::TimeSeries& series,
    metrics::Metric metric = metrics::Metric::kAucPr,
    std::vector<size_t>* failure_counts = nullptr);

/// Builds window-level selector training data from labeled historical
/// series: every window of a series inherits the series' best model
/// (hard label), performance vector (PISL) and metadata text (MKI).
/// Performance rows and metadata texts are stored once per series and
/// referenced per window through `performance_index`/`text_index` —
/// windows of the same series share the row instead of copying it.
StatusOr<SelectorTrainingData> BuildSelectorTrainingData(
    const std::vector<ts::TimeSeries>& series,
    const std::vector<std::vector<float>>& performance,
    const ts::WindowOptions& window_options);

/// End-to-end TSAD-with-model-selection (the demo system's three-step
/// pipeline): given a trained selector and the model set, selects a
/// model per series, runs only that model, and reports its scores.
struct DetectionResult {
  int selected_model = 0;
  std::string model_name;
  std::vector<int> votes;
  std::vector<float> anomaly_scores;
  double auc_pr = 0.0;  ///< Only meaningful when the series has labels.
};

StatusOr<DetectionResult> DetectWithSelection(
    const selectors::Selector& selector,
    const std::vector<std::unique_ptr<tsad::Detector>>& models,
    const ts::TimeSeries& series, const ts::WindowOptions& window_options);

/// The detection half of DetectWithSelection: runs the already-selected
/// model on the series and scores it against ground truth when labels
/// are present. Split out so the serving layer can batch the selection
/// step across concurrent requests and run detection per request.
StatusOr<DetectionResult> RunSelectedDetection(
    const SeriesSelection& selection,
    const std::vector<std::unique_ptr<tsad::Detector>>& models,
    const ts::TimeSeries& series);

/// Saves/loads/lists named TrainedSelectors under a directory (the demo
/// system's Selector Management module). Save, Load and Remove take a
/// non-empty name without '/' (InvalidArgument otherwise), so a name
/// from a client cannot reach files outside the directory. Load and
/// Remove return NotFound for a name with no saved checkpoint. A Load
/// that finds `<name>.meta` but fails keeps TrainedSelector::Load's
/// code; its message names the selector and its files
/// (`saved selector bench: ... bench.weights`), never the directory.
class SelectorManager {
 public:
  explicit SelectorManager(std::string directory);

  Status Save(const TrainedSelector& selector, const std::string& name) const;
  StatusOr<std::unique_ptr<TrainedSelector>> Load(
      const std::string& name) const;
  StatusOr<std::vector<std::string>> List() const;
  Status Remove(const std::string& name) const;

  const std::string& directory() const { return directory_; }

 private:
  static Status CheckName(const std::string& name);
  std::string PathFor(const std::string& name) const;

  std::string directory_;
};

}  // namespace kdsel::core

#endif  // KDSEL_CORE_PIPELINE_H_
