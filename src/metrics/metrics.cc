#include "metrics/metrics.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace kdsel::metrics {

namespace {

Status ValidateInputs(const std::vector<float>& scores,
                      const std::vector<uint8_t>& labels) {
  if (scores.size() != labels.size()) {
    return Status::InvalidArgument("scores/labels length mismatch");
  }
  if (scores.empty()) {
    return Status::InvalidArgument("empty input");
  }
  for (float s : scores) {
    if (std::isnan(s)) return Status::InvalidArgument("NaN score");
  }
  return Status::OK();
}

/// Indices sorted by decreasing score (stable for determinism).
std::vector<size_t> SortByScoreDesc(const std::vector<float>& scores) {
  std::vector<size_t> order(scores.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return scores[a] > scores[b];
  });
  return order;
}

}  // namespace

StatusOr<std::vector<PrPoint>> PrecisionRecallCurve(
    const std::vector<float>& scores, const std::vector<uint8_t>& labels) {
  KDSEL_RETURN_NOT_OK(ValidateInputs(scores, labels));
  size_t total_pos = 0;
  for (uint8_t l : labels) total_pos += (l != 0);
  std::vector<PrPoint> curve;
  if (total_pos == 0) return curve;

  auto order = SortByScoreDesc(scores);
  size_t tp = 0, fp = 0;
  size_t i = 0;
  while (i < order.size()) {
    // Consume a tie group: all items sharing this score move together.
    float score = scores[order[i]];
    while (i < order.size() && scores[order[i]] == score) {
      if (labels[order[i]]) {
        ++tp;
      } else {
        ++fp;
      }
      ++i;
    }
    PrPoint p;
    p.threshold = score;
    p.recall = static_cast<double>(tp) / static_cast<double>(total_pos);
    p.precision = static_cast<double>(tp) / static_cast<double>(tp + fp);
    curve.push_back(p);
  }
  return curve;
}

StatusOr<double> AucPr(const std::vector<float>& scores,
                       const std::vector<uint8_t>& labels) {
  KDSEL_ASSIGN_OR_RETURN(auto curve, PrecisionRecallCurve(scores, labels));
  if (curve.empty()) return 0.0;
  // Average precision: sum over curve points of (ΔR) * P.
  double ap = 0.0;
  double prev_recall = 0.0;
  for (const PrPoint& p : curve) {
    ap += (p.recall - prev_recall) * p.precision;
    prev_recall = p.recall;
  }
  return ap;
}

StatusOr<double> AucRoc(const std::vector<float>& scores,
                        const std::vector<uint8_t>& labels) {
  KDSEL_RETURN_NOT_OK(ValidateInputs(scores, labels));
  // Rank-based (Mann-Whitney U) formulation with midranks for ties.
  size_t n = scores.size();
  auto order = SortByScoreDesc(scores);
  std::vector<double> rank(n, 0.0);  // 1-based midranks, descending order
  size_t i = 0;
  while (i < n) {
    size_t j = i;
    while (j < n && scores[order[j]] == scores[order[i]]) ++j;
    double mid =
        (static_cast<double>(i) + static_cast<double>(j - 1)) / 2.0 + 1.0;
    for (size_t k = i; k < j; ++k) rank[order[k]] = mid;
    i = j;
  }
  double pos = 0, neg = 0, rank_sum_pos = 0;
  for (size_t k = 0; k < n; ++k) {
    if (labels[k]) {
      pos += 1;
      rank_sum_pos += rank[k];
    } else {
      neg += 1;
    }
  }
  if (pos == 0 || neg == 0) return 0.5;
  // rank is descending, so convert: ascending rank = n + 1 - desc rank.
  double asc_rank_sum = pos * (static_cast<double>(n) + 1) - rank_sum_pos;
  double u = asc_rank_sum - pos * (pos + 1) / 2.0;
  return u / (pos * neg);
}

StatusOr<double> BestF1(const std::vector<float>& scores,
                        const std::vector<uint8_t>& labels) {
  KDSEL_ASSIGN_OR_RETURN(auto curve, PrecisionRecallCurve(scores, labels));
  double best = 0.0;
  for (const PrPoint& p : curve) {
    if (p.precision + p.recall > 0) {
      best = std::max(best, 2 * p.precision * p.recall /
                                (p.precision + p.recall));
    }
  }
  return best;
}

double Accuracy(const std::vector<int>& predicted,
                const std::vector<int>& expected) {
  if (predicted.empty() || predicted.size() != expected.size()) return 0.0;
  size_t hit = 0;
  for (size_t i = 0; i < predicted.size(); ++i) {
    hit += (predicted[i] == expected[i]);
  }
  return static_cast<double>(hit) / static_cast<double>(predicted.size());
}

}  // namespace kdsel::metrics
