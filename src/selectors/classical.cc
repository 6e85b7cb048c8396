#include "selectors/classical.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace kdsel::selectors {

Status ValidateTrainingData(const TrainingData& data) {
  if (data.windows.empty()) return Status::InvalidArgument("no windows");
  if (data.labels.size() != data.windows.size()) {
    return Status::InvalidArgument("labels/windows size mismatch");
  }
  if (data.num_classes == 0) {
    return Status::InvalidArgument("num_classes must be positive");
  }
  const size_t dim = data.windows[0].size();
  for (const auto& w : data.windows) {
    if (w.size() != dim) {
      return Status::InvalidArgument("ragged window lengths");
    }
  }
  for (int y : data.labels) {
    if (y < 0 || static_cast<size_t>(y) >= data.num_classes) {
      return Status::InvalidArgument("label out of range");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------- KNN --

Status KnnSelector::Fit(const TrainingData& data) {
  KDSEL_RETURN_NOT_OK(ValidateTrainingData(data));
  auto raw = features::ExtractFeaturesBatch(data.windows);
  scaler_.Fit(raw);
  train_features_ = scaler_.TransformBatch(raw);
  train_labels_ = data.labels;
  num_classes_ = data.num_classes;
  return Status::OK();
}

StatusOr<std::vector<int>> KnnSelector::Predict(
    const std::vector<std::vector<float>>& windows) const {
  if (train_features_.empty()) {
    return Status::FailedPrecondition("KNN not fitted");
  }
  auto query = scaler_.TransformBatch(features::ExtractFeaturesBatch(windows));
  const size_t k = std::min(options_.k, train_features_.size());
  std::vector<int> out;
  out.reserve(query.size());
  std::vector<std::pair<float, int>> dists(train_features_.size());
  for (const auto& q : query) {
    for (size_t i = 0; i < train_features_.size(); ++i) {
      double acc = 0.0;
      const auto& t = train_features_[i];
      for (size_t j = 0; j < q.size(); ++j) {
        double d = q[j] - t[j];
        acc += d * d;
      }
      dists[i] = {static_cast<float>(acc), train_labels_[i]};
    }
    std::nth_element(dists.begin(),
                     dists.begin() + static_cast<ptrdiff_t>(k - 1),
                     dists.end());
    std::vector<int> votes(num_classes_, 0);
    for (size_t i = 0; i < k; ++i)
      ++votes[static_cast<size_t>(dists[i].second)];
    out.push_back(static_cast<int>(
        std::max_element(votes.begin(), votes.end()) - votes.begin()));
  }
  return out;
}

// ---------------------------------------------------------------- SVC --

Status SvcSelector::Fit(const TrainingData& data) {
  KDSEL_RETURN_NOT_OK(ValidateTrainingData(data));
  auto raw = features::ExtractFeaturesBatch(data.windows);
  scaler_.Fit(raw);
  auto rows = scaler_.TransformBatch(raw);
  num_classes_ = data.num_classes;
  const size_t d = rows[0].size();
  weights_.assign(num_classes_, std::vector<double>(d + 1, 0.0));

  Rng rng(options_.seed);
  std::vector<size_t> order(rows.size());
  std::iota(order.begin(), order.end(), size_t{0});
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(order);
    const double lr =
        options_.learning_rate / (1.0 + 0.1 * static_cast<double>(epoch));
    for (size_t i : order) {
      const auto& x = rows[i];
      for (size_t c = 0; c < num_classes_; ++c) {
        auto& w = weights_[c];
        const double y = (data.labels[i] == static_cast<int>(c)) ? 1.0 : -1.0;
        double margin = w[d];
        for (size_t j = 0; j < d; ++j) margin += w[j] * x[j];
        margin *= y;
        for (size_t j = 0; j < d; ++j) {
          double grad = options_.reg * w[j];
          if (margin < 1.0) grad -= y * x[j];
          w[j] -= lr * grad;
        }
        if (margin < 1.0) w[d] += lr * y;
      }
    }
  }
  return Status::OK();
}

StatusOr<std::vector<int>> SvcSelector::Predict(
    const std::vector<std::vector<float>>& windows) const {
  if (weights_.empty()) return Status::FailedPrecondition("SVC not fitted");
  auto rows = scaler_.TransformBatch(features::ExtractFeaturesBatch(windows));
  const size_t d = rows.empty() ? 0 : rows[0].size();
  std::vector<int> out;
  out.reserve(rows.size());
  for (const auto& x : rows) {
    int best = 0;
    double best_score = -1e300;
    for (size_t c = 0; c < num_classes_; ++c) {
      const auto& w = weights_[c];
      double score = w[d];
      for (size_t j = 0; j < d; ++j) score += w[j] * x[j];
      if (score > best_score) {
        best_score = score;
        best = static_cast<int>(c);
      }
    }
    out.push_back(best);
  }
  return out;
}

// ----------------------------------------------------------- AdaBoost --

Status AdaBoostSelector::Fit(const TrainingData& data) {
  KDSEL_RETURN_NOT_OK(ValidateTrainingData(data));
  auto raw = features::ExtractFeaturesBatch(data.windows);
  scaler_.Fit(raw);
  auto rows = scaler_.TransformBatch(raw);
  num_classes_ = data.num_classes;
  const size_t n = rows.size();
  const double k = static_cast<double>(num_classes_);

  learners_.clear();
  alphas_.clear();
  std::vector<double> weights(n, 1.0 / static_cast<double>(n));
  for (size_t round = 0; round < options_.rounds; ++round) {
    DecisionTree::Options topt;
    topt.max_depth = options_.stump_depth;
    topt.seed = options_.seed + round;
    DecisionTree tree(topt);
    KDSEL_RETURN_NOT_OK(tree.Fit(rows, data.labels, num_classes_, weights));
    auto pred = tree.Predict(rows);
    double err = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (pred[i] != data.labels[i]) err += weights[i];
    }
    err = std::clamp(err, 1e-10, 1.0 - 1e-10);
    // SAMME multi-class condition: a learner must beat random guessing.
    if (err >= 1.0 - 1.0 / k) {
      if (learners_.empty()) {
        learners_.push_back(std::move(tree));
        alphas_.push_back(1.0);
      }
      break;
    }
    const double alpha = std::log((1.0 - err) / err) + std::log(k - 1.0);
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      if (pred[i] != data.labels[i]) weights[i] *= std::exp(alpha);
      total += weights[i];
    }
    for (double& w : weights) w /= total;
    learners_.push_back(std::move(tree));
    alphas_.push_back(alpha);
  }
  return Status::OK();
}

StatusOr<std::vector<int>> AdaBoostSelector::Predict(
    const std::vector<std::vector<float>>& windows) const {
  if (learners_.empty()) {
    return Status::FailedPrecondition("AdaBoost not fitted");
  }
  auto rows = scaler_.TransformBatch(features::ExtractFeaturesBatch(windows));
  std::vector<int> out;
  out.reserve(rows.size());
  for (const auto& x : rows) {
    std::vector<double> votes(num_classes_, 0.0);
    for (size_t t = 0; t < learners_.size(); ++t) {
      votes[static_cast<size_t>(learners_[t].PredictOne(x))] += alphas_[t];
    }
    out.push_back(static_cast<int>(
        std::max_element(votes.begin(), votes.end()) - votes.begin()));
  }
  return out;
}

// ------------------------------------------------------- RandomForest --

Status RandomForestSelector::Fit(const TrainingData& data) {
  KDSEL_RETURN_NOT_OK(ValidateTrainingData(data));
  auto raw = features::ExtractFeaturesBatch(data.windows);
  scaler_.Fit(raw);
  auto rows = scaler_.TransformBatch(raw);
  num_classes_ = data.num_classes;
  const size_t n = rows.size();
  const size_t dim = rows[0].size();

  trees_.clear();
  Rng rng(options_.seed);
  for (size_t t = 0; t < options_.num_trees; ++t) {
    // Bootstrap sample expressed through per-sample multiplicity weights.
    std::vector<double> weights(n, 0.0);
    for (size_t i = 0; i < n; ++i) weights[rng.Index(n)] += 1.0;
    DecisionTree::Options topt;
    topt.max_depth = options_.max_depth;
    topt.max_features =
        std::max<size_t>(1, static_cast<size_t>(std::sqrt(double(dim))));
    topt.seed = options_.seed * 977 + t;
    DecisionTree tree(topt);
    KDSEL_RETURN_NOT_OK(tree.Fit(rows, data.labels, num_classes_, weights));
    trees_.push_back(std::move(tree));
  }
  return Status::OK();
}

StatusOr<std::vector<int>> RandomForestSelector::Predict(
    const std::vector<std::vector<float>>& windows) const {
  if (trees_.empty()) {
    return Status::FailedPrecondition("RandomForest not fitted");
  }
  auto rows = scaler_.TransformBatch(features::ExtractFeaturesBatch(windows));
  std::vector<int> out;
  out.reserve(rows.size());
  for (const auto& x : rows) {
    std::vector<int> votes(num_classes_, 0);
    for (const auto& tree : trees_) {
      ++votes[static_cast<size_t>(tree.PredictOne(x))];
    }
    out.push_back(static_cast<int>(
        std::max_element(votes.begin(), votes.end()) - votes.begin()));
  }
  return out;
}

}  // namespace kdsel::selectors
