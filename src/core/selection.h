#ifndef KDSEL_CORE_SELECTION_H_
#define KDSEL_CORE_SELECTION_H_

#include <vector>

#include "common/status.h"
#include "selectors/selector.h"
#include "ts/window.h"

namespace kdsel::core {

/// Outcome of selecting a TSAD model for one series.
struct SeriesSelection {
  int model = 0;               ///< Winning model id.
  std::vector<int> votes;      ///< Vote count per model id.
  size_t num_windows = 0;
};

/// Majority-votes one model id from per-window predictions. Ties break
/// toward the lower model id, deterministically. Shared by the offline
/// protocol below and by the serving layer, which batches the selector
/// forward pass across concurrent requests and votes per request.
StatusOr<SeriesSelection> VoteSeriesSelection(
    const std::vector<int>& predictions, size_t num_classes);

/// Applies the paper's series-level protocol: extract fixed-length
/// windows from `series`, let the (window-level) selector predict a
/// model per window, and majority-vote one model for the series.
/// Ties break toward the lower model id, deterministically.
StatusOr<SeriesSelection> SelectSeriesModel(
    const selectors::Selector& selector, const ts::TimeSeries& series,
    const ts::WindowOptions& window_options, size_t num_classes);

/// Batch version over several series.
StatusOr<std::vector<SeriesSelection>> SelectSeriesModels(
    const selectors::Selector& selector,
    const std::vector<ts::TimeSeries>& series,
    const ts::WindowOptions& window_options, size_t num_classes);

}  // namespace kdsel::core

#endif  // KDSEL_CORE_SELECTION_H_
