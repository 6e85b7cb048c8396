#include "core/selection.h"

#include <algorithm>

#include "common/check.h"

namespace kdsel::core {

StatusOr<SeriesSelection> VoteSeriesSelection(
    std::span<const int> predictions, size_t num_classes) {
  if (num_classes == 0) {
    return Status::InvalidArgument("num_classes must be positive");
  }
  if (predictions.empty()) {
    return Status::InvalidArgument("no window predictions to vote over");
  }
  SeriesSelection out;
  out.votes.assign(num_classes, 0);
  out.num_windows = predictions.size();
  for (int p : predictions) {
    if (p < 0 || static_cast<size_t>(p) >= num_classes) {
      return Status::Internal("selector predicted out-of-range model id");
    }
    ++out.votes[static_cast<size_t>(p)];
  }
  out.model = static_cast<int>(
      std::max_element(out.votes.begin(), out.votes.end()) -
      out.votes.begin());
  return out;
}

StatusOr<SeriesSelection> SelectSeriesModel(
    const selectors::Selector& selector, const ts::TimeSeries& series,
    const ts::WindowOptions& window_options, size_t num_classes) {
  return std::move(
      SelectSeriesModels(selector, {&series}, window_options, num_classes)
          .front());
}

std::vector<StatusOr<SeriesSelection>> SelectSeriesModels(
    const selectors::Selector& selector,
    const std::vector<const ts::TimeSeries*>& series,
    const ts::WindowOptions& window_options, size_t num_classes) {
  if (num_classes == 0) {
    return std::vector<StatusOr<SeriesSelection>>(
        series.size(),
        Status::InvalidArgument("num_classes must be positive"));
  }
  // Series i owns rows [offsets[i], offsets[i + 1]); a series that failed
  // already holds its error and owns no rows.
  std::vector<StatusOr<SeriesSelection>> out;
  out.reserve(series.size());
  std::vector<std::vector<float>> rows;
  std::vector<size_t> offsets(series.size() + 1, 0);
  for (size_t i = 0; i < series.size(); ++i) {
    auto windows = ts::ExtractWindows(*series[i], i, window_options);
    if (!windows.ok()) {
      out.emplace_back(windows.status());
    } else if (windows->empty()) {
      out.emplace_back(Status::InvalidArgument("series produced no windows"));
    } else {
      out.emplace_back(SeriesSelection{});
      for (auto& w : *windows) rows.push_back(std::move(w.values));
    }
    offsets[i + 1] = rows.size();
  }
  if (rows.empty()) return out;

  auto predicted = selector.Predict(rows);
  // Selector contract: one prediction per window.
  KDSEL_CHECK(!predicted.ok() || predicted->size() == rows.size());
  for (size_t i = 0; i < series.size(); ++i) {
    if (!out[i].ok()) continue;
    if (!predicted.ok()) {
      out[i] = predicted.status();
      continue;
    }
    out[i] = VoteSeriesSelection(
        std::span<const int>(*predicted)
            .subspan(offsets[i], offsets[i + 1] - offsets[i]),
        num_classes);
  }
  return out;
}

}  // namespace kdsel::core
