// Finite-difference gradient checks for every layer, block, and loss.
// These are the load-bearing correctness tests of the NN library: if
// Backward disagrees with the numeric derivative of Forward, training
// results are meaningless.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "nn/attention.h"
#include "nn/conv.h"
#include "nn/kernels/kernels.h"
#include "nn/layers.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "selectors/backbone.h"

namespace kdsel::nn {
namespace {

constexpr double kEps = 5e-3;
constexpr double kTol = 6e-2;  // float32 + central differences

void FillRandom(Tensor& t, Rng& rng, double scale = 1.0) {
  for (float& v : t.mutable_data()) {
    v = static_cast<float>(rng.Normal(0.0, scale));
  }
}

/// Scalar objective L = sum(Forward(x) * R).
double Objective(Module& m, const Tensor& x, const Tensor& r) {
  Tensor y = m.Forward(x, /*training=*/true);
  KDSEL_CHECK(SameShape(y, r));
  double acc = 0.0;
  for (size_t i = 0; i < y.size(); ++i) {
    acc += static_cast<double>(y[i]) * r[i];
  }
  return acc;
}

void ExpectClose(double analytic, double numeric, const std::string& what) {
  const double tol =
      kTol * std::max(0.05, std::abs(analytic) + std::abs(numeric));
  EXPECT_NEAR(analytic, numeric, tol) << what;
}

/// Verifies m.Backward against numeric input gradients and numeric
/// parameter gradients on `checks` sampled coordinates each.
void CheckGradients(Module& m, Tensor x, Rng& rng, size_t checks = 16) {
  Tensor r(m.Forward(x, true).shape());  // shape probe
  FillRandom(r, rng);

  // Analytic gradients.
  for (Parameter* p : m.Parameters()) p->ZeroGrad();
  (void)m.Forward(x, true);
  Tensor gx = m.Backward(r);
  ASSERT_TRUE(SameShape(gx, x));

  // Input gradient.
  for (size_t c = 0; c < checks; ++c) {
    size_t i = rng.Index(x.size());
    Tensor xp = x, xm = x;
    xp[i] += static_cast<float>(kEps);
    xm[i] -= static_cast<float>(kEps);
    const double numeric =
        (Objective(m, xp, r) - Objective(m, xm, r)) / (2 * kEps);
    ExpectClose(gx[i], numeric, "input grad at " + std::to_string(i));
  }

  // Parameter gradients (recompute analytic after the probes, since the
  // probes above ran Forward and stale caches must not be used).
  for (Parameter* p : m.Parameters()) p->ZeroGrad();
  (void)m.Forward(x, true);
  (void)m.Backward(r);
  for (Parameter* p : m.Parameters()) {
    const size_t n_checks = std::min<size_t>(checks, p->value.size());
    for (size_t c = 0; c < n_checks; ++c) {
      size_t i = rng.Index(p->value.size());
      const float saved = p->value[i];
      const float analytic = p->grad[i];
      p->value[i] = saved + static_cast<float>(kEps);
      const double lp = Objective(m, x, r);
      p->value[i] = saved - static_cast<float>(kEps);
      const double lm = Objective(m, x, r);
      p->value[i] = saved;
      ExpectClose(analytic, (lp - lm) / (2 * kEps),
                  p->name + " grad at " + std::to_string(i));
    }
  }
}

/// Directional-derivative check for deep composite modules: compares
/// g . d against (L(x + eps d) - L(x - eps d)) / (2 eps) for random unit
/// directions d, with a relative tolerance. Robust to per-unit kink
/// noise that breaks coordinate-wise probes on deep f32 stacks.
void CheckDirectionalGradient(Module& m, Tensor x, Rng& rng,
                              size_t directions = 8) {
  Tensor r(m.Forward(x, true).shape());
  FillRandom(r, rng);
  for (Parameter* p : m.Parameters()) p->ZeroGrad();
  (void)m.Forward(x, true);
  Tensor gx = m.Backward(r);
  ASSERT_TRUE(SameShape(gx, x));

  const double eps = 1e-2;
  double sum_sq_err = 0.0, sum_sq_analytic = 0.0;
  for (size_t trial = 0; trial < directions; ++trial) {
    Tensor d(x.shape());
    FillRandom(d, rng);
    double norm = std::sqrt(d.SquaredL2Norm());
    d.ScaleInPlace(static_cast<float>(1.0 / norm));
    double analytic = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
      analytic += static_cast<double>(gx[i]) * d[i];
    }
    Tensor xp = x, xm = x;
    xp.AxpyInPlace(static_cast<float>(eps), d);
    xm.AxpyInPlace(static_cast<float>(-eps), d);
    const double numeric =
        (Objective(m, xp, r) - Objective(m, xm, r)) / (2 * eps);
    sum_sq_err += (analytic - numeric) * (analytic - numeric);
    sum_sq_analytic += analytic * analytic;
  }
  // Aggregate relative RMS over all directions. Deep f32 stacks are
  // rough (ReLU/maxpool kinks, rounding), so individual probes —
  // especially in directions of tiny derivative — are noisy; but a
  // systematically wrong gradient inflates the error energy relative to
  // the gradient energy across every direction. Constituent layers are
  // verified exactly per-coordinate above; this composite check catches
  // gross plumbing errors (wrong routing, missed residual paths).
  const double rel_rms =
      std::sqrt(sum_sq_err / std::max(sum_sq_analytic, 1e-12));
  EXPECT_LT(rel_rms, 0.2) << "directional-derivative relative RMS too high";
}

TEST(GradCheck, Linear) {
  Rng rng(1);
  Linear layer(6, 4, rng);
  Tensor x({5, 6});
  FillRandom(x, rng);
  CheckGradients(layer, x, rng);
}

TEST(GradCheck, ReLU) {
  Rng rng(2);
  ReLU layer;
  Tensor x({4, 8});
  FillRandom(x, rng);
  // Nudge values away from the kink at 0.
  for (float& v : x.mutable_data()) {
    if (std::abs(v) < 0.05f) v = 0.1f;
  }
  CheckGradients(layer, x, rng);
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.raw(), b.raw(), a.size() * sizeof(float)) == 0;
}

// The former ReLU loops, kept verbatim as the reference the one-pass
// select loops must match bit for bit.
Tensor ReferenceReluForward(const Tensor& input) {
  Tensor out = input;
  for (float& v : out.mutable_data()) v = v > 0 ? v : 0.0f;
  return out;
}

Tensor ReferenceReluBackward(const Tensor& grad_output,
                             const Tensor& cached_output) {
  Tensor g = grad_output;
  const float* y = cached_output.raw();
  float* gd = g.raw();
  for (size_t i = 0; i < g.size(); ++i) {
    if (y[i] <= 0) gd[i] = 0.0f;
  }
  return g;
}

/// Every other element cycles through the IEEE edge cases (signed
/// zeros, NaNs, infinities, subnormals, extremes); the rest are random
/// normals of both signs. `offset` staggers the cycle between tensors.
void FillWithEdgeCases(Tensor& t, Rng& rng, size_t offset) {
  using Limits = std::numeric_limits<float>;
  const float edge[] = {0.0f,
                        -0.0f,
                        Limits::quiet_NaN(),
                        -Limits::quiet_NaN(),
                        Limits::infinity(),
                        -Limits::infinity(),
                        Limits::denorm_min(),
                        -Limits::denorm_min(),
                        1e-40f,
                        -1e-40f,
                        Limits::min(),
                        -Limits::min(),
                        Limits::max(),
                        -Limits::max(),
                        1.5f,
                        -2.25f};
  const size_t n_edge = sizeof(edge) / sizeof(edge[0]);
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = i % 2 == 0 ? edge[(i / 2 + offset) % n_edge]
                      : static_cast<float>(rng.Normal());
  }
}

// Sizes 1, 7 and 37 run the vector loops' tails; [64, 32, 64] is the
// ResNet training shape. Forward at training and inference, then the
// backward of the training forward, each against the reference.
TEST(LayerBitwiseTest, ReLUMatchesReferenceBitwise) {
  Rng rng(41);
  const Shape shapes[] = {{1}, {7}, {37}, {3, 37}, {64, 32, 64}};
  for (const Shape& shape : shapes) {
    for (size_t offset = 0; offset < 3; ++offset) {
      Tensor x(shape), gy(shape);
      FillWithEdgeCases(x, rng, offset);
      FillWithEdgeCases(gy, rng, offset + 5);
      const Tensor want_y = ReferenceReluForward(x);
      const Tensor want_gx = ReferenceReluBackward(gy, want_y);
      const std::string what = "shape " + x.ShapeString() + " offset " +
                               std::to_string(offset);

      ReLU relu;
      EXPECT_TRUE(SameBits(relu.Forward(x, /*training=*/false), want_y))
          << what;
      EXPECT_TRUE(SameBits(relu.Forward(x, /*training=*/true), want_y))
          << what;
      EXPECT_TRUE(SameBits(relu.Backward(gy), want_gx)) << what;
    }
  }
}

// BackwardParams is Backward without the input gradient: on gradients
// that already hold nonzero contents, both accumulate exactly what the
// dW = dY^T X, db = row-sum dY reference adds, in the same order.
TEST(LayerBitwiseTest, LinearBackwardParamsMatchesBackward) {
  for (const size_t batch : {size_t{1}, size_t{5}, size_t{64}}) {
    Rng init_full(42), init_params(42), data_rng(43);
    Linear full(37, 19, init_full);
    Linear params_only(37, 19, init_params);
    Tensor x({batch, 37}), gy({batch, 19});
    FillRandom(x, data_rng);
    FillRandom(gy, data_rng);
    std::vector<Parameter*> pf = full.Parameters();
    std::vector<Parameter*> pp = params_only.Parameters();
    ASSERT_EQ(pf.size(), 2u);
    ASSERT_EQ(pp.size(), 2u);
    for (size_t i = 0; i < pf.size(); ++i) {
      FillRandom(pf[i]->grad, data_rng, 0.1);
      pp[i]->grad = pf[i]->grad;
    }

    // The reference: former Linear::Backward's accumulation, spelled out.
    Tensor want_w = pf[0]->grad;
    want_w.AddInPlace(MatMulTransposedA(gy, x));
    Tensor want_b = pf[1]->grad;
    for (size_t i = 0; i < batch; ++i) {
      kernels::Dispatch().add(want_b.raw(), gy.raw() + i * 19, 19);
    }

    (void)full.Forward(x, /*training=*/true);
    (void)params_only.Forward(x, /*training=*/true);
    const Tensor gx = full.Backward(gy);
    params_only.BackwardParams(gy);
    EXPECT_TRUE(SameBits(gx, MatMul(gy, pf[0]->value))) << batch;
    EXPECT_TRUE(SameBits(pf[0]->grad, want_w)) << batch;
    EXPECT_TRUE(SameBits(pf[1]->grad, want_b)) << batch;
    EXPECT_TRUE(SameBits(pp[0]->grad, pf[0]->grad)) << batch;
    EXPECT_TRUE(SameBits(pp[1]->grad, pf[1]->grad)) << batch;
  }
}

TEST(GradCheck, Gelu) {
  Rng rng(3);
  Gelu layer;
  Tensor x({4, 8});
  FillRandom(x, rng);
  CheckGradients(layer, x, rng);
}

TEST(GradCheck, Conv1d) {
  Rng rng(4);
  Conv1d layer(2, 3, 5, rng);
  Tensor x({3, 2, 12});
  FillRandom(x, rng);
  CheckGradients(layer, x, rng);
}

TEST(GradCheck, Conv1dEvenKernelNoBias) {
  Rng rng(5);
  Conv1d layer(1, 2, 4, rng, /*use_bias=*/false);
  Tensor x({2, 1, 10});
  FillRandom(x, rng);
  CheckGradients(layer, x, rng);
}

TEST(GradCheck, BatchNorm3d) {
  Rng rng(6);
  BatchNorm1d layer(3);
  Tensor x({4, 3, 6});
  FillRandom(x, rng);
  CheckGradients(layer, x, rng);
}

TEST(GradCheck, BatchNorm2d) {
  Rng rng(7);
  BatchNorm1d layer(5);
  Tensor x({8, 5});
  FillRandom(x, rng);
  CheckGradients(layer, x, rng);
}

TEST(GradCheck, LayerNorm) {
  Rng rng(8);
  LayerNorm layer(6);
  Tensor x({3, 4, 6});
  FillRandom(x, rng);
  CheckGradients(layer, x, rng);
}

TEST(GradCheck, GlobalAvgPool) {
  Rng rng(9);
  GlobalAvgPool1d layer;
  Tensor x({3, 4, 8});
  FillRandom(x, rng);
  CheckGradients(layer, x, rng);
}

TEST(GradCheck, MaxPoolSame) {
  Rng rng(10);
  MaxPool1dSame layer;
  Tensor x({2, 3, 10});
  FillRandom(x, rng);
  CheckGradients(layer, x, rng, /*checks=*/8);
}

TEST(GradCheck, MultiHeadSelfAttention) {
  Rng rng(11);
  MultiHeadSelfAttention layer(8, 2, rng);
  Tensor x({2, 5, 8});
  FillRandom(x, rng, 0.5);
  CheckGradients(layer, x, rng, /*checks=*/12);
}

TEST(GradCheck, TransformerEncoderBlock) {
  Rng rng(12);
  TransformerEncoderBlock block(8, 2, 16, /*dropout_rate=*/0.0, rng);
  Tensor x({2, 4, 8});
  FillRandom(x, rng, 0.5);
  CheckGradients(block, x, rng, /*checks=*/12);
}

TEST(GradCheck, SequentialComposition) {
  Rng rng(13);
  Sequential seq;
  seq.Add(std::make_unique<Linear>(6, 10, rng));
  seq.Add(std::make_unique<ReLU>());
  seq.Add(std::make_unique<Linear>(10, 3, rng));
  Tensor x({4, 6});
  FillRandom(x, rng);
  CheckGradients(seq, x, rng);
}

TEST(GradCheck, ResidualBlockSameChannels) {
  Rng rng(14);
  selectors::ResidualBlock block(3, 3, rng);
  Tensor x({2, 3, 10});
  FillRandom(x, rng, 0.5);
  CheckDirectionalGradient(block, x, rng);
}

TEST(GradCheck, ResidualBlockProjected) {
  Rng rng(15);
  selectors::ResidualBlock block(2, 4, rng);
  Tensor x({2, 2, 10});
  FillRandom(x, rng, 0.5);
  CheckDirectionalGradient(block, x, rng);
}

TEST(GradCheck, InceptionModule) {
  Rng rng(16);
  selectors::InceptionModule module(2, 3, 3, rng);
  Tensor x({2, 2, 26});
  FillRandom(x, rng, 0.5);
  CheckDirectionalGradient(module, x, rng);
}

/// Backbone gradient smoke checks, parameterized by architecture.
/// Deep f32 stacks with ReLU/maxpool kinks make per-coordinate finite
/// differences too noisy, so composites are verified with directional
/// derivatives (the kink and rounding errors of individual units wash
/// out against the aggregate gradient).
class BackboneGradTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BackboneGradTest, DirectionalDerivativeMatches) {
  Rng rng(17);
  auto backbone = selectors::BuildBackbone(GetParam(), 16, rng);
  ASSERT_TRUE(backbone.ok());
  Tensor x({3, 16});
  FillRandom(x, rng, 0.5);
  if (GetParam() == "Transformer") {
    // The factory Transformer trains with dropout, which randomizes the
    // objective between probes; check a dropout-free instance instead.
    selectors::TransformerBackbone::Options opts;
    opts.patch_size = 4;
    opts.dropout = 0.0;
    selectors::TransformerBackbone deterministic(16, opts, rng);
    CheckDirectionalGradient(deterministic, x, rng);
  } else {
    CheckDirectionalGradient(**backbone, x, rng);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackbones, BackboneGradTest,
                         ::testing::ValuesIn(selectors::BackboneNames()),
                         [](const auto& info) { return info.param; });

// ---------------------------------------------------------------- Losses

TEST(LossGradCheck, HardCrossEntropy) {
  Rng rng(20);
  Tensor logits({5, 4});
  FillRandom(logits, rng);
  std::vector<int> labels{0, 3, 1, 2, 3};
  std::vector<float> weights{1.0f, 2.0f, 0.5f, 1.0f, 1.5f};
  LossResult res = SoftmaxCrossEntropyHard(logits, labels, weights);
  for (int c = 0; c < 20; ++c) {
    size_t i = rng.Index(logits.size());
    Tensor lp = logits, lm = logits;
    lp[i] += static_cast<float>(kEps);
    lm[i] -= static_cast<float>(kEps);
    const double numeric =
        (SoftmaxCrossEntropyHard(lp, labels, weights).mean_loss -
         SoftmaxCrossEntropyHard(lm, labels, weights).mean_loss) /
        (2 * kEps);
    ExpectClose(res.grad[i], numeric, "CE grad");
  }
}

TEST(LossGradCheck, SoftCrossEntropy) {
  Rng rng(21);
  Tensor logits({4, 3});
  FillRandom(logits, rng);
  Tensor targets({4, 3});
  for (size_t i = 0; i < 4; ++i) {
    double sum = 0;
    for (size_t j = 0; j < 3; ++j) {
      targets.At(i, j) = static_cast<float>(rng.Uniform(0.1, 1.0));
      sum += targets.At(i, j);
    }
    for (size_t j = 0; j < 3; ++j) {
      targets.At(i, j) = static_cast<float>(targets.At(i, j) / sum);
    }
  }
  LossResult res = SoftmaxCrossEntropySoft(logits, targets, {});
  for (int c = 0; c < 15; ++c) {
    size_t i = rng.Index(logits.size());
    Tensor lp = logits, lm = logits;
    lp[i] += static_cast<float>(kEps);
    lm[i] -= static_cast<float>(kEps);
    const double numeric =
        (SoftmaxCrossEntropySoft(lp, targets, {}).mean_loss -
         SoftmaxCrossEntropySoft(lm, targets, {}).mean_loss) /
        (2 * kEps);
    ExpectClose(res.grad[i], numeric, "soft CE grad");
  }
}

TEST(LossGradCheck, InfoNceBothViews) {
  Rng rng(22);
  Tensor a({6, 5}), b({6, 5});
  FillRandom(a, rng);
  FillRandom(b, rng);
  std::vector<float> weights{1.0f, 0.5f, 2.0f, 1.0f, 1.0f, 1.5f};
  InfoNceResult res = InfoNce(a, b, 0.2, weights);
  for (int c = 0; c < 15; ++c) {
    size_t i = rng.Index(a.size());
    Tensor ap = a, am = a;
    ap[i] += static_cast<float>(kEps);
    am[i] -= static_cast<float>(kEps);
    const double numeric = (InfoNce(ap, b, 0.2, weights).mean_loss -
                            InfoNce(am, b, 0.2, weights).mean_loss) /
                           (2 * kEps);
    ExpectClose(res.grad_a[i], numeric, "InfoNCE grad_a");
  }
  for (int c = 0; c < 15; ++c) {
    size_t i = rng.Index(b.size());
    Tensor bp = b, bm = b;
    bp[i] += static_cast<float>(kEps);
    bm[i] -= static_cast<float>(kEps);
    const double numeric = (InfoNce(a, bp, 0.2, weights).mean_loss -
                            InfoNce(a, bm, 0.2, weights).mean_loss) /
                           (2 * kEps);
    ExpectClose(res.grad_b[i], numeric, "InfoNCE grad_b");
  }
}

TEST(LossTest, HardCrossEntropyKnownValue) {
  // Uniform logits over 4 classes: loss = log 4 for every sample.
  Tensor logits({2, 4});
  LossResult res = SoftmaxCrossEntropyHard(logits, {1, 2}, {});
  EXPECT_NEAR(res.mean_loss, std::log(4.0), 1e-5);
  EXPECT_NEAR(res.per_sample[0], std::log(4.0), 1e-5);
}

TEST(LossTest, SoftCrossEntropyMatchesHardOnOneHot) {
  Rng rng(23);
  Tensor logits({3, 5});
  FillRandom(logits, rng);
  std::vector<int> labels{4, 0, 2};
  Tensor onehot({3, 5});
  for (size_t i = 0; i < 3; ++i) {
    onehot.At(i, static_cast<size_t>(labels[i])) = 1.0f;
  }
  LossResult hard = SoftmaxCrossEntropyHard(logits, labels, {});
  LossResult soft = SoftmaxCrossEntropySoft(logits, onehot, {});
  EXPECT_NEAR(hard.mean_loss, soft.mean_loss, 1e-5);
  for (size_t i = 0; i < hard.grad.size(); ++i) {
    EXPECT_NEAR(hard.grad[i], soft.grad[i], 1e-6);
  }
}

TEST(LossTest, InfoNceAlignedViewsScoreLowerThanMisaligned) {
  Rng rng(24);
  Tensor a({8, 6});
  FillRandom(a, rng);
  Tensor b = a;  // perfectly aligned views
  InfoNceResult aligned = InfoNce(a, b, 0.1, {});
  Tensor shuffled({8, 6});
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 6; ++j) {
      shuffled.At(i, j) = a.At((i + 3) % 8, j);
    }
  }
  InfoNceResult misaligned = InfoNce(a, shuffled, 0.1, {});
  EXPECT_LT(aligned.mean_loss, misaligned.mean_loss);
}

TEST(LossGradCheck, InfoNceWithGroupMasking) {
  Rng rng(26);
  Tensor a({6, 4}), b({6, 4});
  FillRandom(a, rng);
  FillRandom(b, rng);
  // Samples 0/1 and 2/3 share groups (duplicated texts).
  std::vector<size_t> groups{0, 0, 1, 1, 2, 3};
  InfoNceResult res = InfoNce(a, b, 0.2, {}, groups);
  for (int c = 0; c < 12; ++c) {
    size_t i = rng.Index(a.size());
    Tensor ap = a, am = a;
    ap[i] += static_cast<float>(kEps);
    am[i] -= static_cast<float>(kEps);
    const double numeric = (InfoNce(ap, b, 0.2, {}, groups).mean_loss -
                            InfoNce(am, b, 0.2, {}, groups).mean_loss) /
                           (2 * kEps);
    ExpectClose(res.grad_a[i], numeric, "masked InfoNCE grad_a");
  }
}

TEST(LossTest, GroupMaskingRemovesFalseNegativePenalty) {
  // Two samples share an identical b-view (same text). Without masking
  // they are each other's hardest negatives; with masking the pair is
  // excluded and the loss drops.
  Rng rng(27);
  Tensor a({4, 8});
  FillRandom(a, rng);
  Tensor b = a;
  // Rows 0 and 1 of b identical (duplicated text).
  for (size_t j = 0; j < 8; ++j) b.At(1, j) = b.At(0, j);
  InfoNceResult unmasked = InfoNce(a, b, 0.1, {});
  InfoNceResult masked = InfoNce(a, b, 0.1, {}, {0, 0, 1, 2});
  EXPECT_LT(masked.mean_loss, unmasked.mean_loss);
}

TEST(LossTest, EmptyGroupsMatchesUnmasked) {
  Rng rng(28);
  Tensor a({5, 6}), b({5, 6});
  FillRandom(a, rng);
  FillRandom(b, rng);
  std::vector<size_t> distinct{0, 1, 2, 3, 4};
  InfoNceResult plain = InfoNce(a, b, 0.2, {});
  InfoNceResult grouped = InfoNce(a, b, 0.2, {}, distinct);
  EXPECT_NEAR(plain.mean_loss, grouped.mean_loss, 1e-6);
}

TEST(LossTest, WeightsScaleObjective) {
  Rng rng(25);
  Tensor logits({4, 3});
  FillRandom(logits, rng);
  std::vector<int> labels{0, 1, 2, 0};
  LossResult base = SoftmaxCrossEntropyHard(logits, labels, {});
  LossResult doubled =
      SoftmaxCrossEntropyHard(logits, labels, {2, 2, 2, 2});
  EXPECT_NEAR(doubled.mean_loss, 2 * base.mean_loss, 1e-5);
  for (size_t i = 0; i < base.grad.size(); ++i) {
    EXPECT_NEAR(doubled.grad[i], 2 * base.grad[i], 1e-6);
  }
  // per_sample stays unweighted (used for pruning statistics).
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(doubled.per_sample[i], base.per_sample[i], 1e-6);
  }
}

}  // namespace
}  // namespace kdsel::nn
