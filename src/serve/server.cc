#include "serve/server.h"

#include <chrono>
#include <utility>

#include "core/selection.h"
#include "obs/clock.h"
#include "ts/window.h"

namespace kdsel::serve {

namespace {

double ToUs(obs::Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

}  // namespace

InferenceServer::InferenceServer(SelectorRegistry* registry,
                                 ServerOptions options)
    : registry_(registry), options_(options) {}

InferenceServer::~InferenceServer() { Stop(); }

Status InferenceServer::Start() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (registry_ == nullptr) {
    return Status::InvalidArgument("server needs a selector registry");
  }
  if (started_) return Status::FailedPrecondition("server already started");
  if (options_.num_workers == 0 || options_.max_batch == 0 ||
      options_.queue_capacity == 0) {
    return Status::InvalidArgument(
        "num_workers, max_batch and queue_capacity must be positive");
  }
  started_ = true;
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    accepting_ = true;
  }
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back(&InferenceServer::WorkerLoop, this);
  }
  return Status::OK();
}

void InferenceServer::Stop() {
  std::lock_guard<std::mutex> lifecycle(lifecycle_mu_);
  if (!started_ || stopped_) return;
  stopped_ = true;
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    accepting_ = false;
  }
  submit_cv_.notify_all();
  // A worker exits only once it finds the queue empty, so every accepted
  // request is served before the joins return.
  for (auto& worker : workers_) worker.join();
  workers_.clear();
}

Status InferenceServer::AdmitLocked(const SelectRequest& request)
    KDSEL_REQUIRES(submit_mu_) {
  if (request.selector.empty()) {
    return Status::InvalidArgument("request names no selector");
  }
  if (!accepting_) {
    return Status::FailedPrecondition("server is not accepting requests");
  }
  if (submit_queue_.size() >= options_.queue_capacity) {
    stats_.RecordRejected();
    return Status::ResourceExhausted(
        "submission queue full (" + std::to_string(options_.queue_capacity) +
        " requests)");
  }
  return Status::OK();
}

void InferenceServer::SubmitBatch(std::vector<AsyncItem> items) {
  const Clock::time_point now = Clock::now();
  // `done` for inadmissible items runs after the lock drops: callbacks
  // are caller code and must not execute under submit_mu_.
  std::vector<std::pair<DoneCallback, Status>> failed;
  size_t admitted = 0;
  {
    std::lock_guard<std::mutex> lock(submit_mu_);
    for (AsyncItem& item : items) {
      Status verdict = AdmitLocked(item.request);
      if (!verdict.ok()) {
        failed.emplace_back(std::move(item.done), std::move(verdict));
        continue;
      }
      Pending pending;
      pending.request = std::move(item.request);
      pending.done = std::move(item.done);
      pending.submit_time = now;
      submit_queue_.push_back(std::move(pending));
      ++admitted;
    }
  }
  if (admitted > 0) {
    stats_.RecordSubmitted(admitted);
    // One idle worker takes the batch; if it leaves requests behind, it
    // wakes the next (see WorkerLoop).
    submit_cv_.notify_one();
  }
  for (auto& [done, status] : failed) done(status);
}

InferenceServer::Batch InferenceServer::TakeBatchLocked()
    KDSEL_REQUIRES(submit_mu_) {
  Batch batch;
  batch.selector = submit_queue_.front().request.selector;
  // Taken requests leave holes; the requests left behind slide forward
  // over them in order, so [kept, scanned) ends up moved-from.
  auto kept = submit_queue_.begin();
  auto scanned = submit_queue_.begin();
  for (; scanned != submit_queue_.end() &&
         batch.items.size() < options_.max_batch;
       ++scanned) {
    if (scanned->request.selector == batch.selector) {
      batch.items.push_back(std::move(*scanned));
    } else {
      if (kept != scanned) *kept = std::move(*scanned);
      ++kept;
    }
  }
  submit_queue_.erase(kept, scanned);
  return batch;
}

void InferenceServer::WorkerLoop() {
  // Worker-private state: no locks on the inference hot path. The model
  // set is deterministic given the seed, so every worker detects
  // identically (and identically to the offline pipeline).
  auto models = tsad::BuildDefaultModelSet(options_.detector_seed);

  for (;;) {
    Batch batch;
    {
      std::unique_lock<std::mutex> lock(submit_mu_);
      submit_cv_.wait(lock,
                      [&] { return !submit_queue_.empty() || !accepting_; });
      if (submit_queue_.empty()) return;  // Stopped and fully drained.
      batch = TakeBatchLocked();
      // Requests for another selector, or past max_batch, stay queued:
      // hand them to the next idle worker.
      if (!submit_queue_.empty()) submit_cv_.notify_one();
    }
    stats_.RecordBatch(batch.items.size());
    ProcessBatch(std::move(batch), models);
  }
}

void InferenceServer::FailBatch(Batch& batch, const Status& status) {
  for (Pending& item : batch.items) {
    auto& endpoint = stats_.endpoint(item.request.run_detection
                                         ? ServerStats::Endpoint::kDetect
                                         : ServerStats::Endpoint::kSelect);
    endpoint.failed.fetch_add(1, std::memory_order_relaxed);
    item.done(status);
  }
}

void InferenceServer::ProcessBatch(
    Batch batch, const std::vector<std::unique_ptr<tsad::Detector>>& models) {
  const Clock::time_point dequeue_time = Clock::now();

  auto snapshot = registry_->GetOrLoad(batch.selector);
  if (!snapshot.ok()) {
    FailBatch(batch, snapshot.status());
    return;
  }
  // Every worker predicts on the shared snapshot: inference forwards
  // write no module state. Holding the snapshot keeps this version alive
  // until the batch finishes, even if a hot reload swaps it out.
  const core::TrainedSelector& selector = *snapshot->selector;
  // Vote over the worker's model-set size, exactly like the offline
  // DetectWithSelection path (the selector picks among these models).
  const size_t num_classes = models.size();

  // Identical protocol to the offline pipeline / `kdsel detect`.
  ts::WindowOptions window_options;
  window_options.length = selector.input_length();
  window_options.stride = window_options.length;

  std::vector<const ts::TimeSeries*> series;
  series.reserve(batch.items.size());
  for (const Pending& item : batch.items) {
    series.push_back(&item.request.series);
  }
  const Clock::time_point select_begin = Clock::now();
  // The micro-batched selection: one selector forward over the windows
  // of every request in the batch, then one vote per request.
  auto selections = core::SelectSeriesModels(selector, series, window_options,
                                             num_classes);
  const double select_us = ToUs(Clock::now() - select_begin);
  size_t rows = 0;
  for (const auto& selection : selections) {
    if (selection.ok()) rows += selection->num_windows;
  }
  stats_.RecordRows(rows);
  const bool int8 = selector.IsInt8();
  stats_.RecordVariantRequests(int8, batch.items.size());

  for (size_t i = 0; i < batch.items.size(); ++i) {
    Pending& item = batch.items[i];
    const bool detect = item.request.run_detection;
    auto& endpoint = stats_.endpoint(detect ? ServerStats::Endpoint::kDetect
                                            : ServerStats::Endpoint::kSelect);
    auto& selection = selections[i];
    if (!selection.ok()) {
      endpoint.failed.fetch_add(1, std::memory_order_relaxed);
      item.done(selection.status());
      continue;
    }

    SelectResponse response;
    response.num_windows = selection->num_windows;
    response.int8 = int8;
    const Clock::time_point detect_begin = Clock::now();
    if (detect) {
      auto detected =
          core::RunSelectedDetection(*selection, models, item.request.series);
      if (!detected.ok()) {
        endpoint.failed.fetch_add(1, std::memory_order_relaxed);
        item.done(detected.status());
        continue;
      }
      response.result = std::move(detected).value();
    } else {
      response.result.selected_model = selection->model;
      response.result.votes = std::move(selection->votes);
      if (static_cast<size_t>(selection->model) < models.size()) {
        response.result.model_name =
            models[static_cast<size_t>(selection->model)]->name();
      }
    }
    const Clock::time_point done = Clock::now();

    response.timing.queue_us = ToUs(dequeue_time - item.submit_time);
    response.timing.select_us = select_us;
    response.timing.detect_us = detect ? ToUs(done - detect_begin) : 0.0;
    response.timing.total_us = ToUs(done - item.submit_time);
    response.timing.batch_size = batch.items.size();
    response.timing.compute_us = ToUs(done - dequeue_time);
    response.timing.done_us =
        std::chrono::duration_cast<std::chrono::microseconds>(
            done.time_since_epoch())
            .count();

    endpoint.queue_wait.Record(response.timing.queue_us);
    endpoint.selection.Record(response.timing.select_us);
    if (detect) endpoint.detection.Record(response.timing.detect_us);
    endpoint.total.Record(response.timing.total_us);
    endpoint.completed.fetch_add(1, std::memory_order_relaxed);
    item.done(std::move(response));
  }
}

}  // namespace kdsel::serve
