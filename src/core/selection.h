#ifndef KDSEL_CORE_SELECTION_H_
#define KDSEL_CORE_SELECTION_H_

#include <span>
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
/// toward the lower model id, deterministically.
StatusOr<SeriesSelection> VoteSeriesSelection(
    std::span<const int> predictions, size_t num_classes);

/// Applies the paper's series-level protocol: extract fixed-length
/// windows from `series`, let the (window-level) selector predict a
/// model per window, and majority-vote one model for the series.
/// Ties break toward the lower model id, deterministically.
StatusOr<SeriesSelection> SelectSeriesModel(
    const selectors::Selector& selector, const ts::TimeSeries& series,
    const ts::WindowOptions& window_options, size_t num_classes);

/// The same protocol over several series with ONE selector forward:
/// every series' windows go through a single Predict (none when no
/// series produced a window), and each series is voted on its own slice
/// of the predictions. Slot i holds series i's selection or series i's
/// own error (its windowing error, or "series produced no windows"); a
/// failed forward fails every slot it fed, and `num_classes == 0` fails
/// every slot. Inference is row-independent and deterministic, so each
/// slot equals SelectSeriesModel of that series alone.
std::vector<StatusOr<SeriesSelection>> SelectSeriesModels(
    const selectors::Selector& selector,
    const std::vector<const ts::TimeSeries*>& series,
    const ts::WindowOptions& window_options, size_t num_classes);

}  // namespace kdsel::core

#endif  // KDSEL_CORE_SELECTION_H_
