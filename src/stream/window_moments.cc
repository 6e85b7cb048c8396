#include "stream/window_moments.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "features/features.h"
#include "obs/metrics.h"

namespace kdsel::stream {

namespace {

obs::Counter& RecomputeCounter() {
  static obs::Counter& counter =
      obs::MetricsRegistry::Global().GetCounter("kdsel.stream.recomputes");
  return counter;
}

}  // namespace

void MomentSummary::ToArray(double out[kDims]) const {
  out[0] = mean;
  out[1] = stddev;
  out[2] = skewness;
  out[3] = autocorr1;
  out[4] = mean_abs_change;
  out[5] = rms;
}

WindowMoments::WindowMoments(size_t window) : buffer_(window) {
  KDSEL_CHECK(window >= kMinWindow);
}

void WindowMoments::Push(float x) {
  const StreamBuffer& b = buffer_;
  if (b.full()) {
    // Remove every sum term that references the outgoing oldest point.
    // All reads happen before the ring mutates.
    const double e0 = b[0];
    const double d0 = e0 - anchor_;
    s1_ -= d0;
    s2_ -= d0 * d0;
    s3_ -= d0 * d0 * d0;
    energy_ -= e0 * e0;
    lag1_ -= (b[1] - anchor_) * d0;
    const double diff = static_cast<double>(b[1]) - e0;
    abs_change_ -= std::abs(diff);
  }

  // x's predecessor in the post-push window, read before the ring
  // mutates.
  const bool has_prev = b.size() > 0;
  const double prev = has_prev ? b.back() : 0.0;

  buffer_.Push(x);

  const double xv = x;
  const double d = xv - anchor_;
  s1_ += d;
  s2_ += d * d;
  s3_ += d * d * d;
  energy_ += xv * xv;
  if (has_prev) {
    lag1_ += (prev - anchor_) * d;
    const double diff = xv - prev;
    abs_change_ += std::abs(diff);
  }

  if (++pushes_since_recompute_ >= buffer_.capacity()) RecomputeExact();
}

void WindowMoments::RecomputeExact() {
  pushes_since_recompute_ = 0;
  ++recomputes_;
  RecomputeCounter().Increment();

  const StreamBuffer& b = buffer_;
  const size_t n = b.size();
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += b[i];
  anchor_ = sum / static_cast<double>(n);

  s1_ = s2_ = s3_ = energy_ = lag1_ = abs_change_ = 0.0;
  double prev = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double xv = b[i];
    const double d = xv - anchor_;
    s1_ += d;
    s2_ += d * d;
    s3_ += d * d * d;
    energy_ += xv * xv;
    if (i >= 1) {
      lag1_ += d * (prev - anchor_);
      const double diff = xv - prev;
      abs_change_ += std::abs(diff);
    }
    prev = xv;
  }
}

MomentSummary WindowMoments::Moments() const {
  MomentSummary s;
  const size_t n = buffer_.size();
  KDSEL_CHECK(n >= 2);
  const double dn = static_cast<double>(n);
  const double ms = s1_ / dn;
  s.mean = anchor_ + ms;
  const double var = std::max(0.0, s2_ / dn - ms * ms);
  s.stddev = std::sqrt(var);
  if (!features::DegenerateVariance(var, s.mean)) {
    const double m3 = s3_ / dn - 3.0 * ms * (s2_ / dn) + 2.0 * ms * ms * ms;
    s.skewness = m3 / (var * s.stddev);
    // The lag-1 sum pairs each point with its predecessor, so the oldest
    // point never appears as d_i and the newest never as d_{i-1}.
    const double pairs = static_cast<double>(n - 1);
    const double sum_recent = s1_ - (buffer_.front() - anchor_);
    const double sum_old = s1_ - (buffer_.back() - anchor_);
    const double acc = lag1_ - ms * (sum_recent + sum_old) + pairs * ms * ms;
    s.autocorr1 = acc / (var * pairs);
  }
  s.mean_abs_change = abs_change_ / static_cast<double>(n - 1);
  s.rms = std::sqrt(std::max(0.0, energy_ / dn));
  return s;
}

}  // namespace kdsel::stream
