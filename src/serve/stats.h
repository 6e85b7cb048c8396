#ifndef KDSEL_SERVE_STATS_H_
#define KDSEL_SERVE_STATS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>

#include "obs/metrics.h"
#include "serve/json.h"

namespace kdsel::serve {

/// The serving layer's latency histograms are the general-purpose
/// obs::Histogram (which started life here as serve::LatencyHistogram
/// and was promoted to src/obs/ when the rest of the codebase grew
/// metrics). Samples are microseconds; the wire format in stats
/// responses keeps its historical `*_us` key names (see
/// LatencyHistogramJson).
using LatencyHistogram = obs::Histogram;

/// Renders a histogram of microsecond samples with the serving wire
/// keys: {"count":..,"min_us":..,"max_us":..,"mean_us":..,"p50_us":..,
/// "p95_us":..,"p99_us":..,"p999_us":..}.
Json LatencyHistogramJson(const LatencyHistogram& histogram);

/// Counters and latency histograms for one logical endpoint ("select"
/// for selection-only requests, "detect" for selection+detection).
struct EndpointStats {
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> failed{0};
  LatencyHistogram queue_wait;  ///< Submit -> a worker took the request.
  LatencyHistogram selection;   ///< Windowing + batched forward + vote.
  LatencyHistogram detection;   ///< Selected-detector scoring (+metric).
  LatencyHistogram total;       ///< Submit -> response ready.

  Json ToJson() const;
};

/// Request-level metrics for the whole inference server. All mutators
/// are thread-safe; ToJson/ToJsonString take a point-in-time snapshot.
class ServerStats {
 public:
  enum class Endpoint { kSelect = 0, kDetect = 1 };
  static constexpr size_t kNumEndpoints = 2;

  void RecordSubmitted(uint64_t n = 1) {
    submitted_.fetch_add(n, std::memory_order_relaxed);
  }
  void RecordRejected() { rejected_.fetch_add(1, std::memory_order_relaxed); }
  void RecordReload() { reloads_.fetch_add(1, std::memory_order_relaxed); }

  /// Records one request refused by SLO-aware admission control (the
  /// net-layer shedder) before it reached the submission queue. Distinct
  /// from `rejected`, which counts queue-full backpressure failures.
  void RecordShed() { shed_.fetch_add(1, std::memory_order_relaxed); }

  /// Records one batch of `size` requests taken by a worker.
  void RecordBatch(size_t size);

  /// Records the `rows` windows one served batch ran through the
  /// selector forward.
  void RecordRows(size_t rows) {
    rows_.fetch_add(rows, std::memory_order_relaxed);
  }

  /// Records `n` requests served by the fp32 or int8 selector variant
  /// (A/B routing attribution; see "variants" in the stats reply).
  void RecordVariantRequests(bool int8, uint64_t n) {
    (int8 ? int8_requests_ : fp32_requests_)
        .fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t fp32_requests() const { return fp32_requests_.load(); }
  uint64_t int8_requests() const { return int8_requests_.load(); }

  EndpointStats& endpoint(Endpoint e) {
    return endpoints_[static_cast<size_t>(e)];
  }
  const EndpointStats& endpoint(Endpoint e) const {
    return endpoints_[static_cast<size_t>(e)];
  }

  uint64_t submitted() const { return submitted_.load(); }
  uint64_t rejected() const { return rejected_.load(); }
  uint64_t shed() const { return shed_.load(); }
  uint64_t completed() const;
  uint64_t failed() const;
  uint64_t batches() const { return batches_.load(); }
  uint64_t rows_total() const { return rows_.load(); }
  /// Every window runs through the forward once, so this is rows_total();
  /// perfbench reads it for its distinct-traffic check.
  uint64_t rows_unique() const { return rows_total(); }

  /// Mean number of requests per batch (0 when no batches yet).
  double MeanBatchSize() const;

  /// Fraction of arrived requests refused by admission control:
  /// shed / (shed + submitted), 0 when nothing has arrived. Rejected
  /// (queue-full) requests were submitted first, so they are already in
  /// the denominator.
  double ShedRate() const;

  Json ToJson() const;
  std::string ToJsonString() const { return ToJson().Dump(); }

 private:
  std::atomic<uint64_t> submitted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> reloads_{0};
  std::atomic<uint64_t> batches_{0};
  std::atomic<uint64_t> batched_requests_{0};
  std::atomic<uint64_t> max_batch_seen_{0};
  std::atomic<uint64_t> rows_{0};
  std::atomic<uint64_t> fp32_requests_{0};
  std::atomic<uint64_t> int8_requests_{0};
  std::array<EndpointStats, kNumEndpoints> endpoints_;
};

}  // namespace kdsel::serve

#endif  // KDSEL_SERVE_STATS_H_
