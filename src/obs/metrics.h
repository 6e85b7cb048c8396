#ifndef KDSEL_OBS_METRICS_H_
#define KDSEL_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "common/annotations.h"

namespace kdsel::obs {

/// Monotonically increasing event count. All operations are lock-free
/// and allocation-free, so counters are safe on any hot path.
class Counter {
 public:
  void Increment(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (thread count, keep-rate, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// A thread-safe value histogram over geometric buckets (the
/// generalization of the former serve::LatencyHistogram; the serving
/// layer still records microseconds into it, but the buckets are
/// unit-agnostic).
///
/// Buckets grow by 2^(1/4) per step, bounding the relative quantile
/// error at ~19% — plenty for p50/p95/p99 dashboards.
///
/// Record() is wait-free with respect to readers, so hot paths never
/// contend on a stats lock: it enters the current phase with one atomic
/// increment, adds the sample to that phase's bank (bucket tick, then
/// CAS loops for sum, min and max that only other records can make
/// retry), and leaves with another increment.
/// Readers (Summarize, Percentile, SampleCount, Reset) serialize on a
/// mutex and flip the phase; new records then go to the other bank,
/// and the reader waits only for the records still writing the old
/// bank before it folds that bank into its running totals. (This is
/// the writer/reader phaser of HdrHistogram's Recorder.) Guarantees:
///   * Every summary describes exactly the set of records it counts:
///     each sample in `samples` is in `sum`, `min` and `max`, and no
///     other sample is, so `min <= mean <= max` always holds and
///     `count == samples`.
///   * A Record() that returned before a read began is in that read; one
///     running concurrently with it is in that read or the next.
///   * Reset() drops every record that returned before it began; one
///     running concurrently with it may survive into the next period.
class Histogram {
 public:
  Histogram();

  /// Records one sample. Negative values and NaN clamp to 0.
  void Record(double value);

  struct Summary {
    uint64_t count = 0;    ///< Samples recorded (equal to `samples`).
    uint64_t samples = 0;  ///< Population visible in the buckets.
    double min = 0.0;
    double max = 0.0;
    double mean = 0.0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    double p999 = 0.0;
  };

  /// Consistent snapshot of every record folded in so far (see the
  /// class comment for the exact guarantees).
  Summary Summarize() const;

  /// Single-quantile snapshot (q in (0, 1]): the q-quantile of the
  /// current population under the same bucket-midpoint estimate as
  /// Summarize(), with the same consistency guarantee. This is THE
  /// percentile implementation for the codebase -- the shedder, the
  /// stage histograms and the serving bench all read quantiles through
  /// it instead of re-deriving their own rank math. Returns 0 when the
  /// histogram is empty.
  double Percentile(double q) const;

  /// Population currently visible in the buckets (the `samples` field
  /// of Summarize(), without computing the quantiles).
  uint64_t SampleCount() const;

  void Reset();

 private:
  // 2^(1/4) growth, 128 buckets: covers [0, ~4.3e9] (in microseconds:
  // ~72 minutes).
  static constexpr size_t kBuckets = 128;
  // The top bit of an epoch counter names the phase (= bank index).
  static constexpr uint64_t kPhaseBit = uint64_t{1} << 63;

  /// Samples recorded during one phase.
  struct Bank {
    std::array<std::atomic<uint64_t>, kBuckets> buckets;
    std::atomic<double> sum{0.0};
    std::atomic<double> min{std::numeric_limits<double>::infinity()};
    std::atomic<double> max{0.0};
  };

  /// Everything folded in from retired banks, owned by the readers.
  struct Totals {
    std::array<uint64_t, kBuckets> counts{};
    uint64_t samples = 0;
    double sum = 0.0;
    double min = std::numeric_limits<double>::infinity();
    double max = 0.0;
  };

  /// Flips the phase, waits for the records still writing the retired
  /// bank, and moves that bank's contents into `totals_`.
  void Drain() const KDSEL_REQUIRES(read_mu_);
  static double PercentileFrom(const Totals& totals, double q);

  static size_t BucketIndex(double value);
  static double BucketLowerBound(size_t index);

  // Readers drain the banks from const accessors, hence `mutable`.
  mutable std::array<Bank, 2> banks_;
  // Records entered (low 63 bits) in the current phase (top bit).
  mutable std::atomic<uint64_t> start_epoch_{0};
  // Records finished per phase, offset by that phase's start value.
  mutable std::array<std::atomic<uint64_t>, 2> end_epoch_;
  mutable std::mutex read_mu_;  ///< Serializes readers and Reset().
  mutable Totals totals_ KDSEL_GUARDED_BY(read_mu_);
};

/// Process-global registry of named metrics.
///
/// Get*() registers on first use and returns a reference with stable
/// address for the process lifetime, so hot paths cache the handle in a
/// function-local static and pay only the atomic update per event.
/// Names follow the `kdsel.<layer>.<name>` convention (see DESIGN.md
/// "Observability").
class MetricsRegistry {
 public:
  /// The process-wide registry. Intentionally immortal: instrumented
  /// code (thread-pool workers, thread-cache destructors) may record
  /// metrics during static teardown, after function-local statics would
  /// already have been destroyed.
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Point-in-time snapshot of every registered metric as a JSON text:
  ///   {"counters": {name: N, ...},
  ///    "gauges": {name: X, ...},
  ///    "histograms": {name: {"count":..,"samples":..,"min":..,"max":..,
  ///                          "mean":..,"p50":..,"p95":..,"p99":..,
  ///                          "p999":..}, ..}}
  /// Returned as a string (not serve::Json) so obs stays below serve in
  /// the dependency graph; the text is valid JSON and can be spliced
  /// into larger documents or parsed by serve::Json::Parse.
  std::string SnapshotJson() const;

  /// The same snapshot in the Prometheus text exposition format. Names
  /// translate mechanically from the registry convention to the metric
  /// contract `kdsel_<layer>_<name>` (every byte outside [A-Za-z0-9_]
  /// becomes '_', so `kdsel.net.stage.queue` scrapes as
  /// `kdsel_net_stage_queue`). Counters/gauges render as single
  /// samples; histograms render as summaries with quantile labels
  /// (0.5/0.95/0.99/0.999) plus `_sum`/`_count` series.
  std::string RenderPrometheus() const;

  /// Zeroes every registered counter/gauge/histogram. Handles stay
  /// valid. For tests that need a clean slate.
  void ResetValuesForTesting();

 private:
  template <typename T>
  T& GetOrCreateLocked(std::map<std::string, std::unique_ptr<T>>& slot,
                       const std::string& name) KDSEL_REQUIRES(mu_);

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      KDSEL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_ KDSEL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      KDSEL_GUARDED_BY(mu_);
};

}  // namespace kdsel::obs

#endif  // KDSEL_OBS_METRICS_H_
