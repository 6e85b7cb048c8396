#ifndef KDSEL_SERVE_SERVER_H_
#define KDSEL_SERVE_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "core/pipeline.h"
#include "obs/clock.h"
#include "serve/registry.h"
#include "serve/stats.h"
#include "ts/time_series.h"
#include "tsad/detector.h"

namespace kdsel::serve {

/// Tuning knobs for the inference server.
struct ServerOptions {
  size_t num_workers = 4;  ///< Worker threads; an idle one takes a batch.
  size_t max_batch = 8;    ///< Most requests one worker takes at once.
  size_t queue_capacity = 1024;  ///< Bounded submission queue (backpressure).
  uint64_t detector_seed = 42;   ///< Seed for each worker's TSAD model set.
};

/// One inference request: select a TSAD model for `series` with the
/// named selector and (optionally) run the selected detector.
struct SelectRequest {
  std::string selector;
  ts::TimeSeries series;
  bool run_detection = true;
};

/// Request-level timing, echoed back so clients and the bench can
/// attribute latency without scraping server logs. The first five
/// fields are the wire keys; the stage fields below them stay off the
/// wire. `queue_us` and `compute_us` feed the net layer's per-stage
/// histograms (kdsel.net.stage.batch_wait and .compute) and the flight
/// recorder.
struct RequestTiming {
  double queue_us = 0.0;   ///< Submit -> a worker took the request.
  double select_us = 0.0;  ///< Windowing + (batched) selector forward + vote.
  double detect_us = 0.0;  ///< Selected-detector scoring; 0 if skipped.
  double total_us = 0.0;   ///< Submit -> response completed.
  size_t batch_size = 0;   ///< Number of requests in the serving batch.

  /// Worker took the batch -> response ready (shared forward pass + this
  /// request's vote/detection slice).
  double compute_us = 0.0;
  /// Absolute completion timestamp, monotonic microseconds on the obs
  /// timebase (obs::NowNs()/1000); lets the transport attribute the
  /// remaining completion->reply-flushed time without a clock handoff.
  int64_t done_us = 0;
};

struct SelectResponse {
  core::DetectionResult result;  ///< scores/auc empty when !run_detection.
  size_t num_windows = 0;
  RequestTiming timing;
  bool int8 = false;  ///< The serving selector runs int8 inference.
};

/// A long-lived, concurrent wrapper around the KDSelector pipeline.
///
/// Architecture (see src/serve/README.md):
///
///   SubmitBatch() -> bounded submission queue -> idle worker takes a
///   per-selector micro-batch
///
/// An idle worker takes the oldest queued request plus up to
/// `max_batch - 1` later requests for the same selector; the requests it
/// leaves keep their order. So requests wait, and batch, only while
/// every worker is busy, and `queue_capacity` bounds the whole backlog.
/// A worker serves a batch by running ONE selector forward pass over the
/// concatenated windows of every request in the batch, then voting and
/// (optionally) detecting per request. Window extraction mirrors the
/// offline protocol (window length = selector input length, stride =
/// length), so responses are byte-identical to core::DetectWithSelection.
///
/// Workers predict directly on the registry's shared, immutable snapshot
/// (inference forwards write no module state), and each keeps its own
/// TSAD model set, so workers share no mutable state on the hot path.
class InferenceServer {
 public:
  /// The registry must outlive the server.
  InferenceServer(SelectorRegistry* registry, ServerOptions options);
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Spawns the worker threads. Call once.
  Status Start();

  /// Stops accepting work, drains every accepted request, and joins all
  /// threads. Idempotent and safe to call from multiple threads
  /// concurrently (the destructor calls it too); exactly one caller
  /// performs the shutdown, the rest return immediately.
  void Stop();

  /// Completion callback of a submitted request. Invoked exactly once
  /// per request, from a worker thread (or from the submitting thread
  /// when admission fails synchronously). Must not block: the net
  /// layer's callbacks hand the formatted response to an epoll shard
  /// and return.
  using DoneCallback = std::function<void(StatusOr<SelectResponse>)>;

  /// One request of a batched async hand-off.
  struct AsyncItem {
    SelectRequest request;
    DoneCallback done;
  };

  /// The one submission path: admits every item under ONE
  /// submission-queue lock acquisition (an epoll shard submits
  /// everything parsed in one wake cycle together). Items that cannot be
  /// admitted (InvalidArgument without a selector name, ResourceExhausted
  /// when the queue is full, FailedPrecondition when the server is not
  /// running) have `done` invoked synchronously with the error; the rest
  /// resolve from worker threads. Every `done` is invoked exactly once.
  void SubmitBatch(std::vector<AsyncItem> items);

  ServerStats& stats() { return stats_; }
  const ServerStats& stats() const { return stats_; }
  const ServerOptions& options() const { return options_; }
  SelectorRegistry& registry() { return *registry_; }

 private:
  using Clock = obs::Clock;

  struct Pending {
    SelectRequest request;
    DoneCallback done;
    Clock::time_point submit_time;
  };

  struct Batch {
    std::string selector;
    std::vector<Pending> items;
  };

  /// Admission verdict for one request: OK, or why it cannot be queued
  /// (ResourceExhausted when the submission queue is full).
  Status AdmitLocked(const SelectRequest& request) KDSEL_REQUIRES(submit_mu_);
  /// Removes the oldest queued request plus up to `max_batch - 1` later
  /// ones for the same selector, in one stable pass. The queue must not
  /// be empty.
  Batch TakeBatchLocked() KDSEL_REQUIRES(submit_mu_);
  void WorkerLoop();
  void ProcessBatch(Batch batch,
                    const std::vector<std::unique_ptr<tsad::Detector>>& models);
  void FailBatch(Batch& batch, const Status& status);

  SelectorRegistry* registry_;
  ServerOptions options_;
  ServerStats stats_;

  std::mutex submit_mu_;
  std::condition_variable submit_cv_;  ///< Wakes idle workers.
  std::deque<Pending> submit_queue_ KDSEL_GUARDED_BY(submit_mu_);
  bool accepting_ KDSEL_GUARDED_BY(submit_mu_) = false;

  std::vector<std::thread> workers_;

  // Serializes Start/Stop; started_/stopped_ are only touched under it.
  // Without this, a Stop() racing the destructor's Stop() could both
  // pass the started-and-not-stopped check and double-join the threads.
  std::mutex lifecycle_mu_;
  bool started_ KDSEL_GUARDED_BY(lifecycle_mu_) = false;
  bool stopped_ KDSEL_GUARDED_BY(lifecycle_mu_) = false;
};

}  // namespace kdsel::serve

#endif  // KDSEL_SERVE_SERVER_H_
