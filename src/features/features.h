#ifndef KDSEL_FEATURES_FEATURES_H_
#define KDSEL_FEATURES_FEATURES_H_

#include <cstddef>
#include <string>
#include <vector>

namespace kdsel::features {

/// Names of the extracted features, in extraction order.
const std::vector<std::string>& FeatureNames();

/// Number of features produced by ExtractFeatures.
size_t FeatureCount();

/// True when a window's variance is too small — relative to its mean's
/// magnitude — for variance-normalized statistics to be meaningful.
/// Constant and near-constant windows land here: float rounding makes the
/// computed mean differ from the constant by a few ulps, so absolute
/// epsilon checks (and the raw beyond-sigma counts) misfire. For such
/// windows skewness, kurtosis, the autocorrelation lags, and the
/// beyond-sigma ratios are defined as exactly 0. The streaming moments
/// (stream::WindowMoments) apply the same test to their skewness and
/// lag-1 autocorrelation.
bool DegenerateVariance(double var, double mean);

/// Reusable temporaries for ExtractFeaturesInto. The vectors keep their
/// capacity between calls, so once an extraction of length n has run,
/// every later one of length <= n is heap-allocation-free
/// (ExtractFeaturesBatch reuses one per chunk).
struct FeatureScratch {
  std::vector<float> sorted;
  std::vector<float> dev;
};

/// Core of ExtractFeatures: writes exactly FeatureCount() values to
/// `out`, using `scratch` for sorting temporaries. Requires n >= 4.
void ExtractFeaturesInto(const float* window, size_t n,
                         FeatureScratch& scratch, float* out);

/// TSFresh-style statistical features of one subsequence (the paper's
/// feature-based baselines run TSFresh + a classical classifier).
/// Covers moments, order statistics, autocorrelation structure,
/// complexity, and run-length statistics — enough signal for the
/// KNN/SVC/AdaBoost/RandomForest baselines to be competitive.
std::vector<float> ExtractFeatures(const std::vector<float>& window);

/// Extracts features for many windows: result is [N][FeatureCount()].
std::vector<std::vector<float>> ExtractFeaturesBatch(
    const std::vector<std::vector<float>>& windows);

/// Per-column z-normalization parameters learned from training rows so
/// train/test share one scaling (classical-classifier hygiene).
struct FeatureScaler {
  std::vector<float> mean;
  std::vector<float> inv_std;

  void Fit(const std::vector<std::vector<float>>& rows);
  std::vector<float> Transform(const std::vector<float>& row) const;
  std::vector<std::vector<float>> TransformBatch(
      const std::vector<std::vector<float>>& rows) const;
};

}  // namespace kdsel::features

#endif  // KDSEL_FEATURES_FEATURES_H_
