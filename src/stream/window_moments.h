#ifndef KDSEL_STREAM_WINDOW_MOMENTS_H_
#define KDSEL_STREAM_WINDOW_MOMENTS_H_

#include <cstddef>
#include <cstdint>

#include "stream/stream_buffer.h"

namespace kdsel::stream {

/// Smallest ring capacity a streamed series may use.
inline constexpr size_t kMinWindow = 16;

/// The six window statistics the drift monitor watches, derived in O(1)
/// from WindowMoments' running sums.
struct MomentSummary {
  static constexpr size_t kDims = 6;

  double mean = 0.0;
  double stddev = 0.0;
  double skewness = 0.0;
  double autocorr1 = 0.0;
  double mean_abs_change = 0.0;
  double rms = 0.0;

  void ToArray(double out[kDims]) const;
};

/// One series' sliding window and the six running sums behind its
/// MomentSummary, with O(1) amortized work per point and no allocation
/// after construction.
///
/// The sums are sum(d), sum(d^2), sum(d^3) and the lag-1 product
/// sum(d_i * d_{i-1}) of the shifted points d = x - K, the raw energy
/// sum(x^2), and the absolute change sum(|x_i - x_{i-1}|). The anchor K
/// is the window mean at the last exact recompute, which keeps the power
/// sums well conditioned. Push adds the new point's terms and, once the
/// ring is full, subtracts the evicted point's. Every `window` pushes
/// the sums are rebuilt exactly from the ring in one pass and
/// re-anchored, so rounding error builds up over at most one window of
/// O(1) updates. The stream_test parity suite pins every MomentSummary
/// field against the batch extractor.
class WindowMoments {
 public:
  /// `window` is the ring capacity, at least kMinWindow.
  explicit WindowMoments(size_t window);

  /// Ingests one point. O(1) amortized; never allocates.
  void Push(float x);

  /// O(1) summary of the current window. Requires buffer().size() >= 2.
  MomentSummary Moments() const;

  const StreamBuffer& buffer() const { return buffer_; }
  uint64_t recomputes() const { return recomputes_; }

 private:
  /// One exact pass over the ring: rebuilds every sum, re-anchors.
  void RecomputeExact();

  StreamBuffer buffer_;
  double anchor_ = 0.0;  ///< Shift K: d = x - K.
  double s1_ = 0.0, s2_ = 0.0, s3_ = 0.0;  ///< Sum d^p.
  double energy_ = 0.0;                    ///< Sum x^2 (raw).
  double lag1_ = 0.0;                      ///< Sum d_i * d_{i-1}.
  double abs_change_ = 0.0;                ///< Sum |x_i - x_{i-1}|.
  size_t pushes_since_recompute_ = 0;
  uint64_t recomputes_ = 0;
};

}  // namespace kdsel::stream

#endif  // KDSEL_STREAM_WINDOW_MOMENTS_H_
