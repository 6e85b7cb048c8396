#include "tsad/ensemble.h"

#include <algorithm>

#include "tsad/util.h"

namespace kdsel::tsad {

EnsembleDetector::EnsembleDetector(
    std::vector<std::unique_ptr<Detector>> members, Combine combine)
    : members_(std::move(members)), combine_(combine) {
  KDSEL_CHECK(!members_.empty());
}

std::string EnsembleDetector::name() const {
  switch (combine_) {
    case Combine::kMean:
      return "Ensemble-mean";
    case Combine::kMax:
      return "Ensemble-max";
    case Combine::kMedian:
      return "Ensemble-median";
  }
  return "Ensemble";
}

StatusOr<std::vector<float>> EnsembleDetector::Score(
    const ts::TimeSeries& series) const {
  std::vector<std::vector<float>> member_scores;
  member_scores.reserve(members_.size());
  for (const auto& member : members_) {
    auto scores = member->Score(series);
    if (!scores.ok()) continue;  // Skip members that cannot handle it.
    MinMaxNormalize(*scores);
    member_scores.push_back(std::move(scores).value());
  }
  if (member_scores.empty()) {
    return Status::FailedPrecondition(
        "no ensemble member could score the series");
  }
  const size_t n = series.length();
  std::vector<float> combined(n, 0.0f);
  switch (combine_) {
    case Combine::kMean: {
      for (const auto& s : member_scores) {
        for (size_t i = 0; i < n; ++i) combined[i] += s[i];
      }
      const float inv = 1.0f / static_cast<float>(member_scores.size());
      for (float& v : combined) v *= inv;
      break;
    }
    case Combine::kMax: {
      for (const auto& s : member_scores) {
        for (size_t i = 0; i < n; ++i)
          combined[i] = std::max(combined[i], s[i]);
      }
      break;
    }
    case Combine::kMedian: {
      std::vector<float> column(member_scores.size());
      for (size_t i = 0; i < n; ++i) {
        for (size_t m = 0; m < member_scores.size(); ++m) {
          column[m] = member_scores[m][i];
        }
        auto mid = column.begin() + static_cast<ptrdiff_t>(column.size() / 2);
        std::nth_element(column.begin(), mid, column.end());
        combined[i] = *mid;
      }
      break;
    }
  }
  return combined;
}

}  // namespace kdsel::tsad
