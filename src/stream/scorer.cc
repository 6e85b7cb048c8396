#include "stream/scorer.h"

#include <algorithm>
#include <utility>

#include "common/annotations.h"
#include "common/check.h"
#include "common/parallel.h"
#include "common/stringutil.h"
#include "core/selection.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "ts/time_series.h"
#include "ts/window.h"

namespace kdsel::stream {

namespace {

struct StreamMetrics {
  obs::Counter& points;
  obs::Counter& rescores;
  obs::Counter& drift_events;
  obs::Counter& selection_changes;
  obs::Gauge& series;
  obs::Histogram& rescore_us;
};

// Series per Phase B re-score chunk. Chunks share the batch's snapshot,
// so this only sizes the ParallelFor work units.
constexpr size_t kRescoreGrain = 2;

StreamMetrics& Metrics() {
  static StreamMetrics metrics = [] {
    auto& registry = obs::MetricsRegistry::Global();
    return StreamMetrics{
        registry.GetCounter("kdsel.stream.points"),
        registry.GetCounter("kdsel.stream.rescores"),
        registry.GetCounter("kdsel.stream.drift_events"),
        registry.GetCounter("kdsel.stream.selection_changes"),
        registry.GetGauge("kdsel.stream.series"),
        registry.GetHistogram("kdsel.stream.rescore_us"),
    };
  }();
  return metrics;
}

}  // namespace

struct StreamScorer::SeriesState {
  SeriesState(std::string series_name, const StreamOptions& options)
      : name(std::move(series_name)),
        moments(options.window),
        drift(options.drift) {
    window_values.reserve(options.window);
  }

  std::string name;
  WindowMoments moments;
  DriftMonitor drift;
  std::vector<float> pending;  ///< Values routed to this series this batch.
  std::vector<StreamEvent> drift_events;
  std::vector<float> window_values;  ///< Re-score scratch.
  uint64_t last_rescore_point = 0;
  int last_model = -1;
  bool rescore_pending = false;
  const char* pending_reason = "initial";
};

StreamScorer::StreamScorer(serve::SelectorRegistry* registry,
                           StreamOptions options)
    : registry_(registry), options_(std::move(options)) {
  KDSEL_CHECK(registry_ != nullptr);
  if (options_.rescore_interval == 0) options_.rescore_interval = 1;
}

StreamScorer::~StreamScorer() = default;

StreamScorer::SeriesState* StreamScorer::FindOrCreate(
    const std::string& name) {
  auto it = series_.find(name);
  if (it != series_.end()) return it->second.get();
  auto state = std::make_unique<SeriesState>(name, options_);
  SeriesState* raw = state.get();
  series_.emplace(name, std::move(state));
  Metrics().series.Set(static_cast<double>(series_.size()));
  return raw;
}

std::string StreamScorer::ModelName(int model) const {
  if (model >= 0 && static_cast<size_t>(model) < options_.model_names.size()) {
    return options_.model_names[static_cast<size_t>(model)];
  }
  return StrFormat("model_%d", model);
}

KDSEL_ALLOC_OK("drift events are rare; steady-state points never allocate")
void StreamScorer::NoteDrift(SeriesState& state, uint64_t total) {
  StreamEvent event;
  event.kind = StreamEvent::Kind::kDrift;
  event.series = state.name;
  event.point = total;
  event.statistic = state.drift.statistic();
  state.drift_events.push_back(std::move(event));
  state.drift.Rebase();
  state.rescore_pending = true;
  state.pending_reason = "drift";
}

KDSEL_HOT void StreamScorer::IngestPending(SeriesState& state,
                                           size_t min_points) {
  for (float value : state.pending) {
    state.moments.Push(value);
    const uint64_t total = state.moments.buffer().total();

    if (options_.drift_check_interval > 0 &&
        total % options_.drift_check_interval == 0 &&
        state.moments.buffer().size() >= 2) {
      const MomentSummary summary = state.moments.Moments();
      if (state.drift.Observe(summary)) {
        NoteDrift(state, total);
      }
    }

    if (!state.rescore_pending &&
        state.moments.buffer().size() >= min_points) {
      const bool due =
          state.last_model < 0 ||
          total - state.last_rescore_point >= options_.rescore_interval;
      if (due) {
        state.rescore_pending = true;
        state.pending_reason = state.last_model < 0 ? "initial" : "periodic";
      }
    }
  }
  state.pending.clear();
}

Status StreamScorer::RescoreSeries(SeriesState& state,
                                   const core::TrainedSelector& selector,
                                   StreamEvent* out) {
  KDSEL_SPAN("stream.Rescore");
  const uint64_t start_ns = obs::NowNs();

  const size_t n = state.moments.buffer().size();
  state.window_values.resize(n);
  state.moments.buffer().CopyTo(state.window_values.data());
  ts::TimeSeries series(state.name, state.window_values);

  ts::WindowOptions window_options;
  window_options.length = selector.input_length();
  KDSEL_ASSIGN_OR_RETURN(
      core::SeriesSelection selection,
      core::SelectSeriesModel(selector, series, window_options,
                              selector.num_classes()));

  out->kind = StreamEvent::Kind::kSelection;
  out->series = state.name;
  out->point = state.moments.buffer().total();
  out->model = selection.model;
  out->model_name = ModelName(selection.model);
  out->votes = std::move(selection.votes);
  out->num_windows = selection.num_windows;

  Metrics().rescore_us.Record(
      static_cast<double>(obs::NowNs() - start_ns) / 1000.0);
  return Status::OK();
}

StatusOr<std::vector<StreamEvent>> StreamScorer::ProcessBatch(
    const std::vector<PointEvent>& events) {
  KDSEL_SPAN("stream.ProcessBatch");
  KDSEL_ASSIGN_OR_RETURN(serve::SelectorRegistry::Snapshot snapshot,
                         registry_->GetOrLoad(options_.selector));
  // First score once a full model window (or the whole ring, if smaller)
  // is available; ExtractWindows pads shorter series by edge replication
  // but scoring mostly-padding windows is noise.
  const size_t min_points = std::max<size_t>(
      4, std::min(snapshot.selector->input_length(), options_.window));

  // Route points to their series; a series' points stay in arrival order.
  touched_.clear();
  for (const PointEvent& event : events) {
    if (event.series.empty()) {
      return Status::InvalidArgument("point event needs a series name");
    }
    SeriesState* state = FindOrCreate(event.series);
    if (state->pending.empty()) touched_.push_back(state);
    state->pending.push_back(event.value);
  }
  Metrics().points.Increment(events.size());
  points_ingested_ += events.size();

  // Phase A: per-series ingest. One series per chunk: per-series state
  // is disjoint, so this is deterministic for any thread count.
  ParallelFor(touched_.size(), 1, [&](size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      IngestPending(*touched_[i], min_points);
    }
  });

  // Phase B: re-score due series, every chunk on the batch's snapshot
  // (inference forwards write no module state, so chunks share it).
  // Each series' result depends only on its own state and the snapshot,
  // so output is independent of the executing thread.
  rescore_.clear();
  for (SeriesState* state : touched_) {
    if (state->rescore_pending) rescore_.push_back(state);
  }
  if (!rescore_.empty()) {
    results_.assign(rescore_.size(), StreamEvent{});
    statuses_.assign(rescore_.size(), Status::OK());
    ParallelFor(rescore_.size(), kRescoreGrain, [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        statuses_[i] =
            RescoreSeries(*rescore_[i], *snapshot.selector, &results_[i]);
        results_[i].selector_version = snapshot.version;
      }
    });
  }

  // Assembly: serial, in first-touch order; per series drift events
  // precede the selection they triggered.
  std::vector<StreamEvent> out;
  size_t result_index = 0;
  for (SeriesState* state : touched_) {
    for (StreamEvent& event : state->drift_events) {
      Metrics().drift_events.Increment();
      out.push_back(std::move(event));
    }
    state->drift_events.clear();
    if (!state->rescore_pending) continue;
    const size_t i = result_index++;
    KDSEL_RETURN_NOT_OK(statuses_[i]);
    StreamEvent& event = results_[i];
    event.reason = state->pending_reason;
    event.changed = state->last_model >= 0 && event.model != state->last_model;
    Metrics().rescores.Increment();
    if (event.changed) Metrics().selection_changes.Increment();
    state->last_model = event.model;
    state->last_rescore_point = state->moments.buffer().total();
    state->rescore_pending = false;
    out.push_back(std::move(event));
  }
  return out;
}

}  // namespace kdsel::stream
