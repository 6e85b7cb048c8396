#include "tsad/density.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "tsad/util.h"

namespace kdsel::tsad {

StatusOr<std::vector<float>> LofDetector::Score(
    const ts::TimeSeries& series) const {
  const size_t w = options_.window;
  if (series.length() < w + options_.k + 1) {
    return Status::InvalidArgument("series too short for LOF");
  }
  auto rows = EmbedWindows(series, w, /*z_normalize=*/false);
  const size_t n = rows.size();
  const size_t k = std::min(options_.k, n - 1);

  // k nearest neighbours (exact, O(n^2)).
  std::vector<std::vector<std::pair<float, size_t>>> knn(n);
  for (size_t i = 0; i < n; ++i) {
    std::vector<std::pair<float, size_t>> dists;
    dists.reserve(n - 1);
    for (size_t j = 0; j < n; ++j) {
      if (j == i) continue;
      dists.emplace_back(
          static_cast<float>(std::sqrt(SquaredDistance(rows[i], rows[j]))), j);
    }
    std::nth_element(dists.begin(),
                     dists.begin() + static_cast<ptrdiff_t>(k - 1),
                     dists.end());
    dists.resize(k);
    std::sort(dists.begin(), dists.end());
    knn[i] = std::move(dists);
  }

  // k-distance of each row, then local reachability density.
  std::vector<float> kdist(n);
  for (size_t i = 0; i < n; ++i) kdist[i] = knn[i].back().first;
  std::vector<float> lrd(n);
  for (size_t i = 0; i < n; ++i) {
    double reach_sum = 0.0;
    for (auto [d, j] : knn[i]) {
      reach_sum += std::max(d, kdist[j]);
    }
    lrd[i] = static_cast<float>(static_cast<double>(k) /
                                std::max(reach_sum, 1e-12));
  }
  std::vector<float> lof(n);
  for (size_t i = 0; i < n; ++i) {
    double ratio_sum = 0.0;
    for (auto [d, j] : knn[i]) ratio_sum += lrd[j];
    lof[i] = static_cast<float>(
        ratio_sum / (static_cast<double>(k) * std::max(lrd[i], 1e-12f)));
  }
  auto scores = WindowToPointScores(lof, w, series.length());
  MinMaxNormalize(scores);
  return scores;
}

StatusOr<std::vector<float>> HbosDetector::Score(
    const ts::TimeSeries& series) const {
  const size_t n = series.length();
  const size_t lags = options_.lag_features;
  if (n < options_.num_bins + lags + 1) {
    return Status::InvalidArgument("series too short for HBOS");
  }
  const auto& v = series.values();

  // One histogram per feature (value and `lags` lagged differences);
  // HBOS multiplies per-feature inverse densities (sums logs).
  std::vector<float> scores(n, 0.0f);
  auto add_feature_scores = [&](const std::vector<float>& feat,
                                size_t offset) {
    auto [lo_it, hi_it] = std::minmax_element(feat.begin(), feat.end());
    float lo = *lo_it, hi = *hi_it;
    if (hi - lo < 1e-12f) return;
    std::vector<double> hist(options_.num_bins, 0.0);
    auto bin_of = [&](float x) {
      size_t b = static_cast<size_t>((x - lo) / (hi - lo) *
                                     static_cast<float>(options_.num_bins));
      return std::min(b, options_.num_bins - 1);
    };
    for (float x : feat) hist[bin_of(x)] += 1.0;
    for (double& h : hist) h /= static_cast<double>(feat.size());
    for (size_t i = 0; i < feat.size(); ++i) {
      double h = std::max(hist[bin_of(feat[i])], 1e-6);
      scores[i + offset] += static_cast<float>(-std::log(h));
    }
  };

  add_feature_scores(v, 0);
  for (size_t lag = 1; lag <= lags; ++lag) {
    std::vector<float> diff(n - lag);
    for (size_t i = lag; i < n; ++i) diff[i - lag] = v[i] - v[i - lag];
    add_feature_scores(diff, lag);
  }
  MinMaxNormalize(scores);
  return scores;
}

}  // namespace kdsel::tsad
