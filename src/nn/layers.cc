#include "nn/layers.h"

#include <algorithm>
#include <cmath>

#include "nn/kernels/kernels.h"
#include "nn/workspace.h"

namespace kdsel::nn {

Linear::Linear(size_t in_features, size_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_("linear.weight", Tensor({out_features, in_features})),
      bias_("linear.bias", Tensor({out_features})) {
  InitHeNormal(weight_.value, in_features, rng);
}

Tensor Linear::Forward(const Tensor& input, bool training) {
  KDSEL_CHECK(input.rank() == 2 && input.dim(1) == in_features_);
  if (training) {
    cached_input_ = input;
  } else if (calibrating_) {
    act_absmax_ = std::max(act_absmax_, AbsMax(input.raw(), input.size()));
  } else if (quantized_) {
    return ForwardInt8(input);
  }
  Tensor out = MatMulTransposedB(input, weight_.value);  // [B, out]
  const kernels::Ops& ops = kernels::Dispatch();
  const size_t b = out.dim(0);
  for (size_t i = 0; i < b; ++i) {
    ops.add(out.raw() + i * out_features_, bias_.value.raw(), out_features_);
  }
  return out;
}

Tensor Linear::ForwardInt8(const Tensor& input) const {
  const kernels::Ops& ops = kernels::Dispatch();
  const size_t b = input.dim(0);
  // Pool-backed int8 scratch for the quantized activations (the pool
  // stores floats; 4 int8 lanes per float slot).
  ScratchBuffer iq_buf((b * in_features_ + 3) / 4);
  int8_t* iq = reinterpret_cast<int8_t*>(iq_buf.data());
  ops.i8_quantize(input.raw(), 1.0f / act_scale_, iq, b * in_features_);
  Tensor out;
  out.Resize({b, out_features_});
  I8MatMulTbParallel(iq, weight_q_.data(), out.raw(), b, in_features_,
                     out_features_, requant_scale_.data(), bias_.value.raw());
  return out;
}

void Linear::BeginQuantCalibration() {
  ClearQuantization();
  calibrating_ = true;
}

void Linear::EndQuantCalibration() {
  QuantizeWithScales({QuantScaleFromAbsMax(act_absmax_)});
}

std::vector<float> Linear::ActivationScales() const {
  KDSEL_CHECK(quantized_);
  return {act_scale_};
}

void Linear::QuantizeWithScales(const std::vector<float>& scales) {
  KDSEL_CHECK(scales.size() == 1 && scales[0] > 0.0f);
  act_scale_ = scales[0];
  weight_q_.resize(out_features_ * in_features_);
  requant_scale_.resize(out_features_);
  QuantizeWeightRows(weight_.value.raw(), out_features_, in_features_,
                     act_scale_, weight_q_.data(), requant_scale_.data());
  calibrating_ = false;
  quantized_ = true;
}

void Linear::ClearQuantization() {
  quantized_ = false;
  calibrating_ = false;
  act_absmax_ = 0.0f;
  act_scale_ = 0.0f;
  weight_q_.clear();
  weight_q_.shrink_to_fit();
  requant_scale_.clear();
  requant_scale_.shrink_to_fit();
}

void Linear::BackwardParams(const Tensor& grad_output) {
  KDSEL_CHECK(grad_output.rank() == 2 &&
              grad_output.dim(1) == out_features_);
  // dW = dY^T X ; db = sum rows dY
  Tensor dw = MatMulTransposedA(grad_output, cached_input_);  // [out, in]
  weight_.grad.AddInPlace(dw);
  const kernels::Ops& ops = kernels::Dispatch();
  const size_t b = grad_output.dim(0);
  for (size_t i = 0; i < b; ++i) {
    ops.add(bias_.grad.raw(), grad_output.raw() + i * out_features_,
            out_features_);
  }
}

Tensor Linear::Backward(const Tensor& grad_output) {
  BackwardParams(grad_output);
  return MatMul(grad_output, weight_.value);  // dX = dY W, [B, in]
}

// Both ReLU loops are one pass of selects into a fresh pooled tensor,
// which GCC if-converts and vectorizes at baseline ISA (compare and
// mask, no per-element branch). The backward loads gy[i] before the
// select on purpose: with the load on one arm only, GCC 12 keeps a
// compare-and-jump per element, which mispredicts on about every other
// element after BatchNorm. Keep the predicates exactly `x > 0` and
// `y <= 0`: they fix every output bit, NaN, -0 and infinities
// included (LayerBitwiseTest.ReLUMatchesReferenceBitwise).
Tensor ReLU::Forward(const Tensor& input, bool training) {
  Tensor out;
  out.Resize(input.shape());
  const float* x = input.raw();
  float* y = out.raw();
  const size_t n = out.size();
  for (size_t i = 0; i < n; ++i) {
    const float v = x[i];
    y[i] = v > 0 ? v : 0.0f;
  }
  if (training) cached_output_ = out;
  return out;
}

Tensor ReLU::Backward(const Tensor& grad_output) {
  KDSEL_CHECK(SameShape(grad_output, cached_output_));
  Tensor g;
  g.Resize(grad_output.shape());
  const float* y = cached_output_.raw();
  const float* gy = grad_output.raw();
  float* gd = g.raw();
  const size_t n = g.size();
  for (size_t i = 0; i < n; ++i) {
    const float v = gy[i];
    gd[i] = y[i] <= 0 ? 0.0f : v;
  }
  return g;
}

namespace {
constexpr float kGeluC = 0.7978845608028654f;  // sqrt(2/pi)
}

Tensor Gelu::Forward(const Tensor& input, bool training) {
  if (training) cached_input_ = input;
  Tensor out = input;
  for (float& v : out.mutable_data()) {
    float x = v;
    float t = std::tanh(kGeluC * (x + 0.044715f * x * x * x));
    v = 0.5f * x * (1.0f + t);
  }
  return out;
}

Tensor Gelu::Backward(const Tensor& grad_output) {
  KDSEL_CHECK(SameShape(grad_output, cached_input_));
  Tensor g = grad_output;
  const float* x = cached_input_.raw();
  float* gd = g.raw();
  for (size_t i = 0; i < g.size(); ++i) {
    float xi = x[i];
    float u = kGeluC * (xi + 0.044715f * xi * xi * xi);
    float t = std::tanh(u);
    float sech2 = 1.0f - t * t;
    float du = kGeluC * (1.0f + 3.0f * 0.044715f * xi * xi);
    float dy = 0.5f * (1.0f + t) + 0.5f * xi * sech2 * du;
    gd[i] *= dy;
  }
  return g;
}

Dropout::Dropout(double rate, Rng& rng) : rate_(rate), rng_(rng.Fork()) {
  KDSEL_CHECK(rate >= 0.0 && rate < 1.0);
}

Tensor Dropout::Forward(const Tensor& input, bool training) {
  if (!training) return input;
  last_training_ = rate_ > 0.0;
  if (!last_training_) return input;
  mask_ = Tensor(input.shape());
  const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
  float* m = mask_.raw();
  for (size_t i = 0; i < mask_.size(); ++i) {
    m[i] = rng_.Bernoulli(rate_) ? 0.0f : keep_scale;
  }
  Tensor out = input;
  float* o = out.raw();
  for (size_t i = 0; i < out.size(); ++i) o[i] *= m[i];
  return out;
}

Tensor Dropout::Backward(const Tensor& grad_output) {
  if (!last_training_) return grad_output;
  KDSEL_CHECK(SameShape(grad_output, mask_));
  Tensor g = grad_output;
  const float* m = mask_.raw();
  float* gd = g.raw();
  for (size_t i = 0; i < g.size(); ++i) gd[i] *= m[i];
  return g;
}

}  // namespace kdsel::nn
