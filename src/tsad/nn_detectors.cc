#include "tsad/nn_detectors.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "nn/conv.h"
#include "nn/layers.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "tsad/util.h"

namespace kdsel::tsad {

namespace {

/// Packs selected rows into a [batch, dim] tensor.
nn::Tensor PackRows(const std::vector<std::vector<float>>& rows,
                    const std::vector<size_t>& idx) {
  KDSEL_CHECK(!idx.empty());
  const size_t dim = rows[idx[0]].size();
  nn::Tensor out({idx.size(), dim});
  for (size_t i = 0; i < idx.size(); ++i) {
    std::copy(rows[idx[i]].begin(), rows[idx[i]].end(), out.raw() + i * dim);
  }
  return out;
}

/// MSE loss between prediction and target; returns mean loss and writes
/// the gradient (2/B * (pred - target)) into `grad`.
double MseLossAndGrad(const nn::Tensor& pred, const nn::Tensor& target,
                      nn::Tensor& grad) {
  KDSEL_CHECK(nn::SameShape(pred, target));
  grad = nn::Tensor(pred.shape());
  const size_t n = pred.size();
  const size_t batch = pred.dim(0);
  double total = 0.0;
  const float scale = 2.0f / static_cast<float>(batch);
  for (size_t i = 0; i < n; ++i) {
    const float d = pred[i] - target[i];
    total += static_cast<double>(d) * d;
    grad.raw()[i] = scale * d;
  }
  return total / static_cast<double>(batch);
}

}  // namespace

StatusOr<std::vector<float>> AutoencoderDetector::Score(
    const ts::TimeSeries& series) const {
  const size_t w = options_.window;
  if (series.length() < 2 * w) {
    return Status::InvalidArgument("series too short for AE");
  }
  auto rows = EmbedWindows(series, w, /*z_normalize=*/true);
  Rng rng(options_.seed);

  nn::Sequential net;
  net.Add(std::make_unique<nn::Linear>(w, options_.hidden, rng));
  net.Add(std::make_unique<nn::ReLU>());
  net.Add(std::make_unique<nn::Linear>(options_.hidden, options_.latent, rng));
  net.Add(std::make_unique<nn::ReLU>());
  net.Add(std::make_unique<nn::Linear>(options_.latent, options_.hidden, rng));
  net.Add(std::make_unique<nn::ReLU>());
  net.Add(std::make_unique<nn::Linear>(options_.hidden, w, rng));

  nn::Adam opt(net.Parameters(), options_.learning_rate);

  // Train on a subsample of the windows (the vast majority are normal,
  // so the AE learns the normal manifold).
  const size_t n_train = std::min(options_.max_train_windows, rows.size());
  auto train_idx = rng.Sample(rows.size(), n_train);
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(train_idx);
    for (size_t off = 0; off < train_idx.size(); off += options_.batch_size) {
      const size_t end = std::min(train_idx.size(), off + options_.batch_size);
      std::vector<size_t> batch(
          train_idx.begin() + static_cast<ptrdiff_t>(off),
          train_idx.begin() + static_cast<ptrdiff_t>(end));
      nn::Tensor x = PackRows(rows, batch);
      nn::Tensor pred = net.Forward(x, /*training=*/true);
      nn::Tensor grad;
      MseLossAndGrad(pred, x, grad);
      net.Backward(grad);
      nn::ClipGradNorm(opt.params(), 5.0);
      opt.Step();
      opt.ZeroGrad();
    }
  }

  // Score all windows by reconstruction error.
  std::vector<float> window_scores(rows.size());
  const size_t kEvalBatch = 256;
  for (size_t off = 0; off < rows.size(); off += kEvalBatch) {
    const size_t end = std::min(rows.size(), off + kEvalBatch);
    std::vector<size_t> batch;
    for (size_t i = off; i < end; ++i) batch.push_back(i);
    nn::Tensor x = PackRows(rows, batch);
    nn::Tensor pred = net.Forward(x, /*training=*/false);
    for (size_t i = 0; i < batch.size(); ++i) {
      double err = 0.0;
      for (size_t j = 0; j < w; ++j) {
        double d = pred.At(i, j) - x.At(i, j);
        err += d * d;
      }
      window_scores[off + i] = static_cast<float>(std::sqrt(err / double(w)));
    }
  }
  auto scores = WindowToPointScores(window_scores, w, series.length());
  MinMaxNormalize(scores);
  return scores;
}

StatusOr<std::vector<float>> CnnDetector::Score(
    const ts::TimeSeries& series) const {
  const size_t w = options_.window;
  const size_t n = series.length();
  if (n < 2 * w + 1) {
    return Status::InvalidArgument("series too short for CNN");
  }
  const auto& v = series.values();
  // Build (window, next value) forecasting pairs on the z-normalized
  // series so the predictor is scale-free.
  std::vector<float> z(v.begin(), v.end());
  ts::ZNormalize(z);
  const size_t n_pairs = n - w;
  std::vector<std::vector<float>> inputs(n_pairs);
  std::vector<float> targets(n_pairs);
  for (size_t i = 0; i < n_pairs; ++i) {
    inputs[i].assign(z.begin() + static_cast<ptrdiff_t>(i),
                     z.begin() + static_cast<ptrdiff_t>(i + w));
    targets[i] = z[i + w];
  }

  Rng rng(options_.seed);
  nn::Sequential encoder;
  encoder.Add(std::make_unique<nn::Conv1d>(1, options_.channels,
                                           options_.kernel, rng));
  encoder.Add(std::make_unique<nn::ReLU>());
  encoder.Add(std::make_unique<nn::Conv1d>(options_.channels,
                                           options_.channels, options_.kernel,
                                           rng));
  encoder.Add(std::make_unique<nn::ReLU>());
  encoder.Add(std::make_unique<nn::GlobalAvgPool1d>());
  nn::Linear head(options_.channels, 1, rng);

  std::vector<nn::Parameter*> params = encoder.Parameters();
  for (nn::Parameter* p : head.Parameters()) params.push_back(p);
  nn::Adam opt(params, options_.learning_rate);

  const size_t n_train = std::min(options_.max_train_windows, n_pairs);
  auto train_idx = rng.Sample(n_pairs, n_train);
  for (size_t epoch = 0; epoch < options_.epochs; ++epoch) {
    rng.Shuffle(train_idx);
    for (size_t off = 0; off < train_idx.size(); off += options_.batch_size) {
      const size_t end = std::min(train_idx.size(), off + options_.batch_size);
      std::vector<size_t> batch(
          train_idx.begin() + static_cast<ptrdiff_t>(off),
          train_idx.begin() + static_cast<ptrdiff_t>(end));
      nn::Tensor x =
          PackRows(inputs, batch).Reshaped({batch.size(), 1, w});
      nn::Tensor target({batch.size(), 1});
      for (size_t i = 0; i < batch.size(); ++i) target[i] = targets[batch[i]];
      nn::Tensor features = encoder.Forward(x, true);
      nn::Tensor pred = head.Forward(features, true);
      nn::Tensor grad;
      MseLossAndGrad(pred, target, grad);
      encoder.Backward(head.Backward(grad));
      nn::ClipGradNorm(params, 5.0);
      opt.Step();
      opt.ZeroGrad();
    }
  }

  // Score: |prediction error| at each forecastable point; the first w
  // points inherit the first computed score.
  std::vector<float> scores(n, 0.0f);
  const size_t kEvalBatch = 256;
  for (size_t off = 0; off < n_pairs; off += kEvalBatch) {
    const size_t end = std::min(n_pairs, off + kEvalBatch);
    std::vector<size_t> batch;
    for (size_t i = off; i < end; ++i) batch.push_back(i);
    nn::Tensor x = PackRows(inputs, batch).Reshaped({batch.size(), 1, w});
    nn::Tensor pred = head.Forward(encoder.Forward(x, false), false);
    for (size_t i = 0; i < batch.size(); ++i) {
      scores[off + i + w] = std::abs(pred[i] - targets[off + i]);
    }
  }
  for (size_t i = 0; i < w; ++i) scores[i] = scores[w];
  MinMaxNormalize(scores);
  return scores;
}

}  // namespace kdsel::tsad
