#include "core/pipeline.h"

#include <algorithm>
#include <filesystem>

#include "common/parallel.h"
#include "datagen/benchmark.h"
#include "metrics/metrics.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace kdsel::core {

namespace fs = std::filesystem;

namespace {

/// Outcome of one (series, detector) pair. Each parallel task owns
/// exactly one slot, so the matrix build needs no locks — in particular
/// none held across Detector::Score (the lock-across-score lint rule).
struct PairResult {
  float value = 0.0f;
  StatusCode code = StatusCode::kOk;
  bool score_failed = false;  ///< Error came from Score(), not the metric.
  std::string message;
};

}  // namespace

StatusOr<std::vector<std::vector<float>>> EvaluatePerformanceMatrix(
    const std::vector<std::unique_ptr<tsad::Detector>>& models,
    const std::vector<const ts::TimeSeries*>& series, metrics::Metric metric,
    std::vector<size_t>* failure_counts) {
  KDSEL_SPAN("core.evaluate_performance_matrix");
  const size_t num_series = series.size();
  const size_t num_models = models.size();
  for (const ts::TimeSeries* s : series) {
    if (s == nullptr) return Status::InvalidArgument("null series pointer");
    if (!s->has_labels()) {
      return Status::InvalidArgument(
          "label generation requires ground-truth anomaly labels");
    }
  }
  if (failure_counts != nullptr) failure_counts->assign(num_models, 0);

  // Detector::Score is const and every pair touches a distinct slot, so
  // the fan-out is race-free and the matrix is order-independent.
  std::vector<PairResult> slots(num_series * num_models);
  obs::MetricsRegistry::Global()
      .GetCounter("kdsel.core.perf_matrix_pairs")
      .Increment(slots.size());
  ParallelFor(slots.size(), 1, [&](size_t begin, size_t end) {
    for (size_t pair = begin; pair < end; ++pair) {
      const size_t si = pair / num_models;
      const size_t mi = pair % num_models;
      PairResult& slot = slots[pair];
      auto scores = models[mi]->Score(*series[si]);
      if (!scores.ok()) {
        slot.code = scores.status().code();
        slot.score_failed = true;
        slot.message = scores.status().message();
        continue;
      }
      auto value =
          metrics::EvaluateMetric(metric, *scores, series[si]->labels());
      if (!value.ok()) {
        slot.code = value.status().code();
        slot.message = value.status().message();
        continue;
      }
      slot.value = static_cast<float>(*value);
    }
  });

  // Deterministic serial pass: classify failures in pair order. Only an
  // InvalidArgument from Score() (detector cannot handle the series,
  // e.g. too short) maps to worst-case performance; anything else is a
  // genuine fault and fails the build.
  std::vector<std::vector<float>> matrix(num_series,
                                         std::vector<float>(num_models, 0.0f));
  for (size_t pair = 0; pair < slots.size(); ++pair) {
    const PairResult& slot = slots[pair];
    const size_t si = pair / num_models;
    const size_t mi = pair % num_models;
    if (slot.code == StatusCode::kOk) {
      matrix[si][mi] = slot.value;
      continue;
    }
    if (slot.score_failed && slot.code == StatusCode::kInvalidArgument) {
      if (failure_counts != nullptr) ++(*failure_counts)[mi];
      continue;  // Worst-case 0.0 already in place.
    }
    return Status(slot.code, models[mi]->name() + " on series '" +
                                 series[si]->name() + "': " + slot.message);
  }
  return matrix;
}

StatusOr<std::vector<float>> EvaluateDetectorsOnSeries(
    const std::vector<std::unique_ptr<tsad::Detector>>& models,
    const ts::TimeSeries& series, metrics::Metric metric,
    std::vector<size_t>* failure_counts) {
  KDSEL_ASSIGN_OR_RETURN(
      auto matrix,
      EvaluatePerformanceMatrix(models, {&series}, metric, failure_counts));
  return std::move(matrix[0]);
}

StatusOr<SelectorTrainingData> BuildSelectorTrainingData(
    const std::vector<ts::TimeSeries>& series,
    const std::vector<std::vector<float>>& performance,
    const ts::WindowOptions& window_options) {
  if (series.size() != performance.size()) {
    return Status::InvalidArgument("series/performance size mismatch");
  }
  if (series.empty()) return Status::InvalidArgument("no series");
  SelectorTrainingData data;
  data.num_classes = performance[0].size();
  // One performance row / metadata text per series, shared by all of its
  // windows through the index vectors — windows used to copy both, which
  // blew memory up by the window count.
  for (size_t s = 0; s < series.size(); ++s) {
    if (performance[s].size() != data.num_classes) {
      return Status::InvalidArgument("ragged performance matrix");
    }
    const int best = static_cast<int>(
        std::max_element(performance[s].begin(), performance[s].end()) -
        performance[s].begin());
    KDSEL_ASSIGN_OR_RETURN(auto windows,
                           ts::ExtractWindows(series[s], s, window_options));
    if (windows.empty()) continue;
    const size_t row = data.performance.size();
    data.performance.push_back(performance[s]);
    data.texts.push_back(datagen::BuildMetadataText(series[s]));
    for (auto& w : windows) {
      data.windows.push_back(std::move(w.values));
      data.labels.push_back(best);
      data.performance_index.push_back(row);
      data.text_index.push_back(row);
    }
  }
  return data;
}

StatusOr<DetectionResult> DetectWithSelection(
    const selectors::Selector& selector,
    const std::vector<std::unique_ptr<tsad::Detector>>& models,
    const ts::TimeSeries& series, const ts::WindowOptions& window_options) {
  KDSEL_ASSIGN_OR_RETURN(
      SeriesSelection sel,
      SelectSeriesModel(selector, series, window_options, models.size()));
  return RunSelectedDetection(sel, models, series);
}

StatusOr<DetectionResult> RunSelectedDetection(
    const SeriesSelection& selection,
    const std::vector<std::unique_ptr<tsad::Detector>>& models,
    const ts::TimeSeries& series) {
  if (selection.model < 0 ||
      static_cast<size_t>(selection.model) >= models.size()) {
    return Status::InvalidArgument("selected model id out of range");
  }
  DetectionResult result;
  result.selected_model = selection.model;
  result.votes = selection.votes;
  result.model_name = models[static_cast<size_t>(selection.model)]->name();
  KDSEL_ASSIGN_OR_RETURN(
      result.anomaly_scores,
      models[static_cast<size_t>(selection.model)]->Score(series));
  if (series.has_labels()) {
    KDSEL_ASSIGN_OR_RETURN(
        result.auc_pr,
        metrics::AucPr(result.anomaly_scores, series.labels()));
  }
  return result;
}

SelectorManager::SelectorManager(std::string directory)
    : directory_(std::move(directory)) {}

std::string SelectorManager::PathFor(const std::string& name) const {
  return (fs::path(directory_) / name).string();
}

Status SelectorManager::CheckName(const std::string& name) {
  if (name.empty() || name.find('/') != std::string::npos) {
    return Status::InvalidArgument("invalid selector name: " + name);
  }
  return Status::OK();
}

Status SelectorManager::Save(const TrainedSelector& selector,
                             const std::string& name) const {
  KDSEL_RETURN_NOT_OK(CheckName(name));
  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec) return Status::IoError("cannot create directory: " + directory_);
  return selector.Save(PathFor(name));
}

StatusOr<std::unique_ptr<TrainedSelector>> SelectorManager::Load(
    const std::string& name) const {
  KDSEL_RETURN_NOT_OK(CheckName(name));
  // A missing checkpoint is reported by name: the directory stays out
  // of replies that reach serving clients.
  std::error_code ec;
  const std::string prefix = PathFor(name);
  if (!fs::exists(prefix + ".meta", ec) && !ec) {
    return Status::NotFound("no saved selector named " + name);
  }
  auto loaded = TrainedSelector::Load(prefix);
  if (loaded.ok()) return loaded;
  // A half-written or corrupt checkpoint keeps its code. The lower
  // layers name files by the path prefix they were given; replies name
  // them by the selector's name instead.
  std::string detail = loaded.status().message();
  for (size_t at = detail.find(prefix); at != std::string::npos;
       at = detail.find(prefix, at + name.size())) {
    detail.replace(at, prefix.size(), name);
  }
  return Status(loaded.status().code(),
                "saved selector " + name + ": " + detail);
}

StatusOr<std::vector<std::string>> SelectorManager::List() const {
  std::vector<std::string> names;
  std::error_code ec;
  if (!fs::exists(directory_, ec)) return names;
  for (const auto& entry : fs::directory_iterator(directory_, ec)) {
    if (entry.path().extension() == ".meta") {
      names.push_back(entry.path().stem().string());
    }
  }
  if (ec) return Status::IoError("cannot list " + directory_);
  std::sort(names.begin(), names.end());
  return names;
}

Status SelectorManager::Remove(const std::string& name) const {
  KDSEL_RETURN_NOT_OK(CheckName(name));
  std::error_code ec;
  bool removed_meta = fs::remove(PathFor(name) + ".meta", ec);
  bool removed_weights = fs::remove(PathFor(name) + ".weights", ec);
  if (!removed_meta && !removed_weights) {
    return Status::NotFound("no saved selector named " + name);
  }
  return Status::OK();
}

}  // namespace kdsel::core
