#ifndef KDSEL_STREAM_DRIFT_H_
#define KDSEL_STREAM_DRIFT_H_

#include <cstddef>
#include <cstdint>

#include "stream/window_moments.h"

namespace kdsel::stream {

struct DriftOptions {
  size_t calibration = 64;  ///< Observations that learn the baseline.
  double threshold = 16.0;  ///< Mean squared z-score that counts as shift.
  size_t patience = 3;      ///< Consecutive hot checks before firing.
  double sigma_floor = 0.05;  ///< Relative floor on per-dimension sigma.
};

/// Detects distribution shift in the streamed feature summaries.
///
/// The first `calibration` observations build a per-dimension baseline
/// (Welford mean/variance over the MomentSummary dimensions); after
/// calibration the baseline is frozen and each observation scores as the
/// mean squared z-score against it. Sigmas are floored at
/// sigma_floor * (1 + |mu|) so a dimension that happened to be stable
/// during calibration cannot alone inflate the statistic. The monitor
/// fires after `patience` consecutive above-threshold checks — a single
/// outlier window is an anomaly, a sustained shift is drift.
class DriftMonitor {
 public:
  explicit DriftMonitor(const DriftOptions& options) : options_(options) {}

  /// Feeds one summary; true when drift fires. Callers should Rebase()
  /// once they have reacted (re-scored), or the next sustained run of
  /// hot checks fires again against the stale baseline.
  bool Observe(const MomentSummary& summary);

  /// Drops the baseline and recalibrates on the points that follow.
  void Rebase();

  bool calibrated() const { return count_ >= options_.calibration; }
  double statistic() const { return statistic_; }
  uint64_t observations() const { return count_; }
  const DriftOptions& options() const { return options_; }

 private:
  DriftOptions options_;
  uint64_t count_ = 0;
  size_t hot_ = 0;
  double statistic_ = 0.0;
  double mean_[MomentSummary::kDims] = {};
  double m2_[MomentSummary::kDims] = {};
};

}  // namespace kdsel::stream

#endif  // KDSEL_STREAM_DRIFT_H_
