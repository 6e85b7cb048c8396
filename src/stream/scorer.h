#ifndef KDSEL_STREAM_SCORER_H_
#define KDSEL_STREAM_SCORER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "common/annotations.h"
#include "serve/registry.h"
#include "stream/drift.h"
#include "stream/window_moments.h"

namespace kdsel::stream {

struct StreamOptions {
  std::string selector;  ///< Registry name scored against.
  /// Ring capacity per series, at least kMinWindow. The moment sums are
  /// rebuilt exactly every `window` points.
  size_t window = 256;
  size_t rescore_interval = 128;     ///< Points between periodic re-scores.
  size_t drift_check_interval = 16;  ///< Points between drift checks.
  DriftOptions drift;
  std::vector<std::string> model_names;  ///< Optional id -> display name.
};

/// One input point of one series.
struct PointEvent {
  std::string series;
  float value = 0.0f;
};

/// One output event: a (re-)selection or a drift trigger.
struct StreamEvent {
  enum class Kind { kSelection, kDrift };

  Kind kind = Kind::kSelection;
  std::string series;
  uint64_t point = 0;  ///< Points ingested for the series at emission.
  int model = -1;      ///< Winning model id (selection events).
  std::string model_name;
  std::vector<int> votes;  ///< Per-model vote counts over the window.
  size_t num_windows = 0;
  bool changed = false;  ///< Selection differs from the previous one.
  std::string reason;    ///< "initial" | "periodic" | "drift".
  double statistic = 0.0;        ///< Drift statistic (drift events).
  uint64_t selector_version = 0;  ///< Registry snapshot that scored it.
};

/// Multiplexes many series through a ring window with running moments
/// (WindowMoments), drift monitoring on those moments, and selector
/// re-scoring of the raw window, periodic or drift-triggered, against a
/// serve::SelectorRegistry snapshot (hot reload: a new registry version
/// is picked up at the next batch).
///
/// ProcessBatch output is deterministic w.r.t. thread count: per-series
/// ingest runs one series per ParallelFor chunk, parallel re-scores all
/// predict on the batch's one shared snapshot (inference forwards write
/// no module state), and events are assembled serially in first-touch
/// order. Not thread-safe itself: one StreamScorer per ingest thread.
class StreamScorer {
 public:
  StreamScorer(serve::SelectorRegistry* registry, StreamOptions options);
  ~StreamScorer();

  StreamScorer(const StreamScorer&) = delete;
  StreamScorer& operator=(const StreamScorer&) = delete;

  /// Ingests a batch of point events; returns the events it emitted, in
  /// deterministic order (per series: drift first, then selection).
  StatusOr<std::vector<StreamEvent>> ProcessBatch(
      const std::vector<PointEvent>& events);

  size_t series_count() const { return series_.size(); }
  uint64_t points_ingested() const { return points_ingested_; }
  const StreamOptions& options() const { return options_; }

 private:
  struct SeriesState;

  SeriesState* FindOrCreate(const std::string& name);
  /// Steady-state per-point loop: window pushes, drift checks on the
  /// moments, rescore scheduling. KDSEL_HOT -- kdsel_lint proves no
  /// allocation happens here outside the NoteDrift boundary.
  void IngestPending(SeriesState& state, size_t min_points);
  /// Drift events are rare (one per detected distribution change), so
  /// the event construction + push is an accepted allocation boundary
  /// (KDSEL_ALLOC_OK on the definition).
  void NoteDrift(SeriesState& state, uint64_t total);
  Status RescoreSeries(SeriesState& state,
                       const core::TrainedSelector& selector,
                       StreamEvent* out);
  std::string ModelName(int model) const;

  serve::SelectorRegistry* registry_;
  StreamOptions options_;
  std::unordered_map<std::string, std::unique_ptr<SeriesState>> series_;
  std::vector<SeriesState*> touched_;   ///< Batch scratch, first-touch order.
  std::vector<SeriesState*> rescore_;   ///< Batch scratch.
  std::vector<StreamEvent> results_;    ///< Per-rescore output slots.
  std::vector<Status> statuses_;        ///< Per-rescore status slots.
  uint64_t points_ingested_ = 0;
};

}  // namespace kdsel::stream

#endif  // KDSEL_STREAM_SCORER_H_
